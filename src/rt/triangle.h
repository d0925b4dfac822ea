#ifndef CGRX_SRC_RT_TRIANGLE_H_
#define CGRX_SRC_RT_TRIANGLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/rt/aabb.h"
#include "src/rt/vec3.h"

namespace cgrx::rt {

/// The vertex buffer: a flat array of float32 triangles, exactly like
/// the buffer handed to optixAccelBuild. A triangle's position in the
/// buffer is its primitive index, which RX/cgRX exploit to associate
/// triangles with rowIDs/bucketIDs ("This position is called the
/// primitive index").
///
/// Slots can be degenerate (all three vertices coincide), the standard
/// trick to represent holes: GPU raytracers cull zero-area triangles, so
/// a degenerate slot can never be hit but keeps later primitive indices
/// stable. cgRX uses this for skipped duplicate representatives.
class TriangleSoup {
 public:
  /// Appends a triangle; returns its primitive index.
  std::uint32_t Add(const Vec3f& v0, const Vec3f& v1, const Vec3f& v2);

  /// Appends a degenerate (unhittable) slot; returns its index.
  std::uint32_t AddDegenerate();

  /// Overwrites a slot in place (RX update path). The BVH topology is
  /// unaware of this until Refit()/rebuild.
  void Set(std::uint32_t index, const Vec3f& v0, const Vec3f& v1,
           const Vec3f& v2);

  /// Turns a slot degenerate in place (RX delete path).
  void SetDegenerate(std::uint32_t index);

  std::size_t size() const { return vertices_.size() / 9; }
  bool empty() const { return vertices_.empty(); }

  Vec3f Vertex(std::uint32_t index, int corner) const {
    const std::size_t base = static_cast<std::size_t>(index) * 9 +
                             static_cast<std::size_t>(corner) * 3;
    return {vertices_[base], vertices_[base + 1], vertices_[base + 2]};
  }

  /// True when the slot holds a real (non-degenerate) triangle.
  bool IsActive(std::uint32_t index) const;

  Aabb BoundsOf(std::uint32_t index) const;

  /// Bytes of vertex data (36 per slot, the paper's per-triangle cost).
  std::size_t MemoryBytes() const { return vertices_.size() * sizeof(float); }

  void Reserve(std::size_t triangles) { vertices_.reserve(triangles * 9); }
  void Clear() { vertices_.clear(); }

  /// Raw vertex stream (9 floats per slot) -- the persistence layer
  /// snapshots and restores the buffer wholesale, exactly as a GPU
  /// vertex buffer would be DMA'd to and from disk.
  const std::vector<float>& raw_vertices() const { return vertices_; }
  void RestoreRaw(std::vector<float> vertices) {
    vertices_ = std::move(vertices);
  }

 private:
  std::vector<float> vertices_;
};

}  // namespace cgrx::rt

#endif  // CGRX_SRC_RT_TRIANGLE_H_
