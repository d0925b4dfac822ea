#ifndef CGRX_SRC_RT_RAY_H_
#define CGRX_SRC_RT_RAY_H_

#include <cstdint>
#include <limits>

#include "src/rt/vec3.h"

namespace cgrx::rt {

/// A ray with clamped extent, mirroring the OptiX ray interface the
/// paper relies on: "OptiX provides an option to limit a ray to a
/// specified length" is expressed through [t_min, t_max].
struct Ray {
  Vec3f origin;
  Vec3f direction;  ///< A +x, +y or +z unit vector; rt::Scene throws
                    ///< std::invalid_argument for any other.
  float t_min = 0;
  float t_max = std::numeric_limits<float>::infinity();
};

/// Result of a ray cast. `front_face` mirrors OptiX's triangle-facing
/// query: true when the triangle winding appears counter-clockwise from
/// the ray origin (used by the paper's triangle-flipping optimization).
/// `t` is double so hit positions stay row-exact at world coordinates up
/// to 2^43 (scaled z planes), where a float parameter would round across
/// grid rows.
struct Hit {
  std::uint32_t primitive_index = 0;
  double t = 0;
  bool front_face = true;
};

}  // namespace cgrx::rt

#endif  // CGRX_SRC_RT_RAY_H_
