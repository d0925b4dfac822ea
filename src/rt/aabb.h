#ifndef CGRX_SRC_RT_AABB_H_
#define CGRX_SRC_RT_AABB_H_

#include <limits>

#include "src/rt/vec3.h"

namespace cgrx::rt {

/// Axis-aligned bounding box (the "bounding volume" of the paper's BVH
/// discussion). Empty boxes are inverted-infinite so Grow() composes.
struct Aabb {
  Vec3f min{std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::infinity()};
  Vec3f max{-std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity()};

  void Grow(const Vec3f& p) {
    min = Min(min, p);
    max = Max(max, p);
  }

  void Grow(const Aabb& other) {
    min = Min(min, other.min);
    max = Max(max, other.max);
  }

  bool IsEmpty() const { return min.x > max.x; }

  Vec3f Extent() const { return max - min; }

  Vec3f Center() const { return 0.5f * (min + max); }

  /// Surface area for the SAH cost model; 0 for empty boxes.
  float SurfaceArea() const {
    if (IsEmpty()) return 0;
    const Vec3f e = Extent();
    return 2.0f * (e.x * e.y + e.y * e.z + e.z * e.x);
  }

  bool Contains(const Aabb& inner) const {
    if (inner.IsEmpty()) return true;
    return min.x <= inner.min.x && min.y <= inner.min.y &&
           min.z <= inner.min.z && max.x >= inner.max.x &&
           max.y >= inner.max.y && max.z >= inner.max.z;
  }
};

}  // namespace cgrx::rt

#endif  // CGRX_SRC_RT_AABB_H_
