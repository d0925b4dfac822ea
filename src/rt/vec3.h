#ifndef CGRX_SRC_RT_VEC3_H_
#define CGRX_SRC_RT_VEC3_H_

#include <algorithm>
#include <cmath>

namespace cgrx::rt {

/// Three-component float vector. Components are deliberately float32 to
/// mirror the GPU vertex format: the key-mapping representability
/// arguments of the paper (23 bits per dimension) are arguments about
/// float32, and the scene must quantize exactly like the real system.
struct Vec3f {
  float x = 0;
  float y = 0;
  float z = 0;

  friend Vec3f operator+(Vec3f a, Vec3f b) {
    return {a.x + b.x, a.y + b.y, a.z + b.z};
  }
  friend Vec3f operator-(Vec3f a, Vec3f b) {
    return {a.x - b.x, a.y - b.y, a.z - b.z};
  }
  friend Vec3f operator*(float s, Vec3f v) {
    return {s * v.x, s * v.y, s * v.z};
  }
  friend bool operator==(const Vec3f&, const Vec3f&) = default;

  float operator[](int axis) const { return axis == 0 ? x : axis == 1 ? y : z; }
};

/// Double-precision vector used inside the intersection kernels. Scene
/// geometry stays float32 (see Vec3f); promoting the arithmetic keeps
/// the software traverser robust at coordinates up to 2^43 where float32
/// edge functions would lose the tiny triangle extents (documented
/// deviation in DESIGN.md Section 6).
struct Vec3d {
  double x = 0;
  double y = 0;
  double z = 0;

  Vec3d() = default;
  explicit Vec3d(const Vec3f& v) : x(v.x), y(v.y), z(v.z) {}
};

inline Vec3f Min(const Vec3f& a, const Vec3f& b) {
  return {std::min(a.x, b.x), std::min(a.y, b.y), std::min(a.z, b.z)};
}

inline Vec3f Max(const Vec3f& a, const Vec3f& b) {
  return {std::max(a.x, b.x), std::max(a.y, b.y), std::max(a.z, b.z)};
}

}  // namespace cgrx::rt

#endif  // CGRX_SRC_RT_VEC3_H_
