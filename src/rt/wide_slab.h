#ifndef CGRX_SRC_RT_WIDE_SLAB_H_
#define CGRX_SRC_RT_WIDE_SLAB_H_

#include <algorithm>

#include "src/rt/bvh4.h"

namespace cgrx::rt::detail {

/// 4-wide quantized child slab test for +axis unit rays (the only ray
/// shape the indexes fire; DESIGN.md Section 6): tests all four
/// children of one Bvh4 node against the ray in a single pass and
/// returns a hit bitmask, writing each hit child's entry distance to
/// `t_entry[c]`.
///
/// Membership comparisons on the two fixed axes, then an interval test
/// on the ray axis. Every plane is dequantized with the exact float
/// expression the quantizer's fix-up loops verified (origin + q * 2^e,
/// whose product term is exact), so conservativeness carries over bit
/// for bit; the comparisons run in double like the binary slab test.
/// A refit-emptied child (qlo > qhi) fails the membership or interval
/// test, and lanes past num_children are never read.
///
/// `A` is the ray axis; `oa/ou/ov` are the ray origin components on the
/// ray axis and the two membership axes ((A+1)%3, (A+2)%3); `scale`
/// caches the node's per-axis dequantization scales.
template <int A>
inline int WideAxisChildren(const Bvh4::Node& node, const float scale[3],
                            double oa, double ou, double ov, double t_min,
                            double t_max, double t_entry[Bvh4::kWidth]) {
  constexpr int kU = (A + 1) % 3;
  constexpr int kV = (A + 2) % 3;
  int mask = 0;
  for (int c = 0; c < node.num_children; ++c) {
    const float origin_u = node.origin[kU];
    const float su = scale[kU];
    if (ou < origin_u + static_cast<float>(node.qlo[kU][c]) * su ||
        ou > origin_u + static_cast<float>(node.qhi[kU][c]) * su) {
      continue;
    }
    const float origin_v = node.origin[kV];
    const float sv = scale[kV];
    if (ov < origin_v + static_cast<float>(node.qlo[kV][c]) * sv ||
        ov > origin_v + static_cast<float>(node.qhi[kV][c]) * sv) {
      continue;
    }
    const float origin_a = node.origin[A];
    const float sa = scale[A];
    const double lo = std::max(
        t_min,
        static_cast<double>(origin_a +
                            static_cast<float>(node.qlo[A][c]) * sa) -
            oa);
    const double hi = std::min(
        t_max,
        static_cast<double>(origin_a +
                            static_cast<float>(node.qhi[A][c]) * sa) -
            oa);
    if (lo > hi) continue;
    t_entry[c] = lo;
    mask |= 1 << c;
  }
  return mask;
}

}  // namespace cgrx::rt::detail

#endif  // CGRX_SRC_RT_WIDE_SLAB_H_
