#include "src/rt/triangle.h"

namespace cgrx::rt {

std::uint32_t TriangleSoup::Add(const Vec3f& v0, const Vec3f& v1,
                                const Vec3f& v2) {
  const auto index = static_cast<std::uint32_t>(size());
  vertices_.insert(vertices_.end(),
                   {v0.x, v0.y, v0.z, v1.x, v1.y, v1.z, v2.x, v2.y, v2.z});
  return index;
}

std::uint32_t TriangleSoup::AddDegenerate() {
  const auto index = static_cast<std::uint32_t>(size());
  vertices_.insert(vertices_.end(), 9, 0.0f);
  return index;
}

void TriangleSoup::Set(std::uint32_t index, const Vec3f& v0, const Vec3f& v1,
                       const Vec3f& v2) {
  const std::size_t base = static_cast<std::size_t>(index) * 9;
  const float data[9] = {v0.x, v0.y, v0.z, v1.x, v1.y, v1.z, v2.x, v2.y, v2.z};
  for (int i = 0; i < 9; ++i) vertices_[base + i] = data[i];
}

void TriangleSoup::SetDegenerate(std::uint32_t index) {
  const std::size_t base = static_cast<std::size_t>(index) * 9;
  for (int i = 0; i < 9; ++i) vertices_[base + i] = 0.0f;
}

bool TriangleSoup::IsActive(std::uint32_t index) const {
  // A slot is degenerate iff all three vertices coincide, which is how
  // both AddDegenerate and SetDegenerate encode holes.
  const Vec3f v0 = Vertex(index, 0);
  return !(v0 == Vertex(index, 1) && v0 == Vertex(index, 2));
}

Aabb TriangleSoup::BoundsOf(std::uint32_t index) const {
  Aabb box;
  box.Grow(Vertex(index, 0));
  box.Grow(Vertex(index, 1));
  box.Grow(Vertex(index, 2));
  return box;
}

}  // namespace cgrx::rt
