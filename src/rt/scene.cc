#include "src/rt/scene.h"

#include <algorithm>
#include <stdexcept>

#include "src/rt/wide_slab.h"

namespace cgrx::rt {
namespace {

double Component(const Vec3d& v, int axis) {
  return axis == 0 ? v.x : axis == 1 ? v.y : v.z;
}

/// The axis of a +x, +y or +z unit direction, the only rays the indexes
/// fire; throws std::invalid_argument for any other direction.
int PositiveAxisOf(const Vec3f& d) {
  if (d.x == 1 && d.y == 0 && d.z == 0) return 0;
  if (d.x == 0 && d.y == 1 && d.z == 0) return 1;
  if (d.x == 0 && d.y == 0 && d.z == 1) return 2;
  throw std::invalid_argument("rt::Scene casts only +x, +y or +z unit rays");
}

/// +axis unit-ray policy. The two fixed axes reduce the box test to
/// interval-membership comparisons; the triangle test becomes a 2D
/// edge-function evaluation in the projection plane, with the hit
/// parameter interpolated barycentrically. All math stays double over
/// the float32 vertices (see DESIGN.md Section 6).
template <int A>
struct AxisRayPolicy {
  static constexpr int kU = (A + 1) % 3;
  static constexpr int kV = (A + 2) % 3;
  double oa, ou, ov;

  explicit AxisRayPolicy(const Vec3d& origin)
      : oa(Component(origin, A)),
        ou(Component(origin, kU)),
        ov(Component(origin, kV)) {}

  static float BoxMin(const Aabb& b, int axis) {
    return axis == 0 ? b.min.x : axis == 1 ? b.min.y : b.min.z;
  }
  static float BoxMax(const Aabb& b, int axis) {
    return axis == 0 ? b.max.x : axis == 1 ? b.max.y : b.max.z;
  }

  bool BoxHit(const Aabb& bounds, double t_min, double t_max,
              double* t_entry) const {
    if (ou < BoxMin(bounds, kU) || ou > BoxMax(bounds, kU)) return false;
    if (ov < BoxMin(bounds, kV) || ov > BoxMax(bounds, kV)) return false;
    const double lo =
        std::max(t_min, static_cast<double>(BoxMin(bounds, A)) - oa);
    const double hi =
        std::min(t_max, static_cast<double>(BoxMax(bounds, A)) - oa);
    if (lo > hi) return false;
    *t_entry = lo;
    return true;
  }

  /// Quantized-child box test on the two membership axes plus the ray
  /// axis interval for all four children in one pass over the node's
  /// cache line (src/rt/wide_slab.h). Dequantizes only the planes it
  /// compares -- the exact float expressions the quantizer's fix-up
  /// loops verified, so conservativeness carries over bit-for-bit. No
  /// inverted-bounds check needed: an inverted child yields lo > hi.
  int WideChildrenHit(const Bvh4::Node& node, const float* scale,
                      double t_min, double t_max,
                      double t_entry[Bvh4::kWidth]) const {
    return detail::WideAxisChildren<A>(node, scale, oa, ou, ov, t_min, t_max,
                                       t_entry);
  }

  bool TriangleHit(const TriangleSoup& soup, std::uint32_t prim,
                   double t_min, double t_max, double* t,
                   bool* front) const {
    const Vec3d v0(soup.Vertex(prim, 0));
    const Vec3d v1(soup.Vertex(prim, 1));
    const Vec3d v2(soup.Vertex(prim, 2));
    const double u0 = Component(v0, kU) - ou;
    const double w0 = Component(v0, kV) - ov;
    const double u1 = Component(v1, kU) - ou;
    const double w1 = Component(v1, kV) - ov;
    const double u2 = Component(v2, kU) - ou;
    const double w2 = Component(v2, kV) - ov;
    // Edge functions of the projected triangle around the ray's fixed
    // 2D point; their sum equals the A-component of the geometric
    // normal, giving winding for free.
    const double e0 = u1 * w2 - w1 * u2;
    const double e1 = u2 * w0 - w2 * u0;
    const double e2 = u0 * w1 - w0 * u1;
    const bool all_nonneg = e0 >= 0 && e1 >= 0 && e2 >= 0;
    const bool all_nonpos = e0 <= 0 && e1 <= 0 && e2 <= 0;
    if (!all_nonneg && !all_nonpos) return false;
    const double area = e0 + e1 + e2;
    if (area == 0) return false;  // Degenerate in projection.
    const double hit_a =
        (e0 * Component(v0, A) + e1 * Component(v1, A) +
         e2 * Component(v2, A)) /
        area;
    const double hit_t = hit_a - oa;
    if (hit_t < t_min || hit_t > t_max) return false;
    *t = hit_t;
    // Front face iff dot(+axis, normal) < 0, and area == normal[A].
    *front = area < 0;
    return true;
  }
};

/// Invokes `fn` with the policy for `ray`, whose `axis` PositiveAxisOf
/// returned. Every cast checks the direction before its empty-scene
/// return, so a non-axis ray throws whatever the scene holds.
template <typename Fn>
decltype(auto) WithPolicy(int axis, const Ray& ray, Fn&& fn) {
  const Vec3d origin(ray.origin);
  if (axis == 0) return fn(AxisRayPolicy<0>(origin));
  if (axis == 1) return fn(AxisRayPolicy<1>(origin));
  return fn(AxisRayPolicy<2>(origin));
}

/// Closest-hit accumulator shared by both traversals: deterministic
/// tie-break on equal t (lowest primitive index wins), so wide and
/// binary traversal return identical hits regardless of visit order.
struct ClosestHit {
  double best_t;
  std::uint32_t prim = 0;
  bool front = true;
  bool found = false;

  explicit ClosestHit(double t_max) : best_t(t_max) {}

  void Offer(std::uint32_t p, double t, bool f) {
    if (!found || t < best_t || (t == best_t && p < prim)) {
      best_t = t;
      prim = p;
      front = f;
      found = true;
    }
  }
};

/// Binary reference traversal (the oracle): one ray, fresh 96-entry
/// stack, ordered descent by child entry distance.
template <typename Policy>
std::optional<Hit> CastClosest(const TriangleSoup& soup, const Bvh& bvh,
                               const Policy& policy, double t_min,
                               double t_max_in, TraversalStats* stats) {
  const auto& nodes = bvh.nodes();
  const auto& prims = bvh.prim_indices();
  ClosestHit best(t_max_in);

  struct Entry {
    std::uint32_t node;
    double t;
  };
  Entry stack[96];
  int top = 0;
  {
    double t0 = 0;
    if (!policy.BoxHit(nodes[0].bounds, t_min, best.best_t, &t0)) {
      return std::nullopt;
    }
    stack[top++] = {0, t0};
  }
  while (top > 0) {
    const Entry e = stack[--top];
    if (e.t > best.best_t) continue;  // Superseded by a closer hit.
    const Bvh::Node& node = nodes[e.node];
    if (stats != nullptr) stats->nodes_visited++;
    if (node.IsLeaf()) {
      for (std::uint32_t i = 0; i < node.prim_count; ++i) {
        const std::uint32_t prim = prims[node.left_or_first + i];
        if (!soup.IsActive(prim)) continue;
        if (stats != nullptr) stats->triangle_tests++;
        double t = 0;
        bool front = true;
        if (policy.TriangleHit(soup, prim, t_min, best.best_t, &t, &front)) {
          best.Offer(prim, t, front);
        }
      }
      continue;
    }
    const std::uint32_t left = node.left_or_first;
    double t_left = 0;
    double t_right = 0;
    const bool hit_left =
        policy.BoxHit(nodes[left].bounds, t_min, best.best_t, &t_left);
    const bool hit_right =
        policy.BoxHit(nodes[left + 1].bounds, t_min, best.best_t, &t_right);
    if (hit_left && hit_right) {
      // Push the farther child first so the nearer one is processed
      // next; this is what makes closest-hit discovery cheap.
      if (t_left <= t_right) {
        stack[top++] = {left + 1, t_right};
        stack[top++] = {left, t_left};
      } else {
        stack[top++] = {left, t_left};
        stack[top++] = {left + 1, t_right};
      }
    } else if (hit_left) {
      stack[top++] = {left, t_left};
    } else if (hit_right) {
      stack[top++] = {left + 1, t_right};
    }
  }
  if (!best.found) return std::nullopt;
  return Hit{best.prim, best.best_t, best.front};
}

template <typename Policy>
void CastAll(const TriangleSoup& soup, const Bvh& bvh, const Policy& policy,
             double t_min, double t_max, std::vector<Hit>* hits,
             TraversalStats* stats) {
  const auto& nodes = bvh.nodes();
  const auto& prims = bvh.prim_indices();
  std::uint32_t stack[96];
  int top = 0;
  {
    double t0 = 0;
    if (!policy.BoxHit(nodes[0].bounds, t_min, t_max, &t0)) return;
    stack[top++] = 0;
  }
  while (top > 0) {
    const Bvh::Node& node = nodes[stack[--top]];
    if (stats != nullptr) stats->nodes_visited++;
    if (node.IsLeaf()) {
      for (std::uint32_t i = 0; i < node.prim_count; ++i) {
        const std::uint32_t prim = prims[node.left_or_first + i];
        if (!soup.IsActive(prim)) continue;
        if (stats != nullptr) stats->triangle_tests++;
        double t = 0;
        bool front = true;
        if (policy.TriangleHit(soup, prim, t_min, t_max, &t, &front)) {
          hits->push_back({prim, t, front});
        }
      }
      continue;
    }
    const std::uint32_t left = node.left_or_first;
    double t_left = 0;
    double t_right = 0;
    if (policy.BoxHit(nodes[left].bounds, t_min, t_max, &t_left)) {
      stack[top++] = left;
    }
    if (policy.BoxHit(nodes[left + 1].bounds, t_min, t_max, &t_right)) {
      stack[top++] = left + 1;
    }
  }
}

/// Wide closest-hit traversal over the quantized 4-ary BVH. All four
/// children of a node are tested in one pass over its cache line; leaf
/// children are resolved inline (no stack round trip) and internal hit
/// children are pushed far-to-near by entry distance.
template <typename Policy>
bool CastClosest4(const TriangleSoup& soup, const Bvh4& bvh,
                  const std::uint32_t* prims, const Policy& policy,
                  double t_min, double t_max_in, Hit* out,
                  detail::TraversalStackEntry* stack,
                  TraversalStats* stats) {
  const Bvh4::Node* nodes = bvh.nodes().data();
  ClosestHit best(t_max_in);
  int top = 0;
  stack[top++] = {0, t_min};
  while (top > 0) {
    const detail::TraversalStackEntry e = stack[--top];
    if (e.t > best.best_t) continue;  // Superseded by a closer hit.
    const Bvh4::Node& node = nodes[e.node];
    if (stats != nullptr) stats->nodes_visited++;
    const float scale[3] = {node.Scale(0), node.Scale(1), node.Scale(2)};
    // Test all children in one pass over the node's cache line, then
    // process hit children in ascending entry order: a near leaf hit
    // tightens best_t before farther siblings are even considered.
    struct ChildHit {
      double t;
      std::uint32_t ref;
      std::uint32_t count;
    };
    ChildHit hit_children[Bvh4::kWidth];
    int num_hit = 0;
    double t_entry[Bvh4::kWidth];
    const int hit_mask =
        policy.WideChildrenHit(node, scale, t_min, best.best_t, t_entry);
    for (int c = 0; c < node.num_children; ++c) {
      if ((hit_mask & (1 << c)) == 0) continue;
      hit_children[num_hit++] = {t_entry[c], node.child[c], node.count[c]};
    }
    // Insertion-sort the <= 4 hits by ascending entry t.
    for (int i = 1; i < num_hit; ++i) {
      const ChildHit h = hit_children[i];
      int j = i - 1;
      while (j >= 0 && hit_children[j].t > h.t) {
        hit_children[j + 1] = hit_children[j];
        --j;
      }
      hit_children[j + 1] = h;
    }
    // Leaf children resolve inline near-to-far; internal children push
    // far-to-near so the nearest pops first.
    for (int i = 0; i < num_hit; ++i) {
      const ChildHit& h = hit_children[i];
      if (h.count == 0 || h.t > best.best_t) continue;
      for (std::uint32_t p = 0; p < h.count; ++p) {
        const std::uint32_t prim = prims[h.ref + p];
        if (!soup.IsActive(prim)) continue;
        if (stats != nullptr) stats->triangle_tests++;
        double t = 0;
        bool front = true;
        if (policy.TriangleHit(soup, prim, t_min, best.best_t, &t, &front)) {
          best.Offer(prim, t, front);
        }
      }
    }
    for (int i = num_hit; i-- > 0;) {
      if (hit_children[i].count == 0 && hit_children[i].t <= best.best_t) {
        stack[top++] = {hit_children[i].ref, hit_children[i].t};
      }
    }
  }
  if (!best.found) return false;
  out->primitive_index = best.prim;
  out->t = best.best_t;
  out->front_face = best.front;
  return true;
}

/// Wide collect-all traversal (unordered; no distance sorting needed).
template <typename Policy>
void CastAll4(const TriangleSoup& soup, const Bvh4& bvh,
              const std::uint32_t* prims, const Policy& policy, double t_min,
              double t_max, std::vector<Hit>* hits,
              detail::TraversalStackEntry* stack, TraversalStats* stats) {
  const Bvh4::Node* nodes = bvh.nodes().data();
  int top = 0;
  stack[top++] = {0, 0};
  while (top > 0) {
    const Bvh4::Node& node = nodes[stack[--top].node];
    if (stats != nullptr) stats->nodes_visited++;
    const float scale[3] = {node.Scale(0), node.Scale(1), node.Scale(2)};
    double t_entry[Bvh4::kWidth];
    const int hit_mask =
        policy.WideChildrenHit(node, scale, t_min, t_max, t_entry);
    for (int c = 0; c < node.num_children; ++c) {
      if ((hit_mask & (1 << c)) == 0) continue;
      if (node.count[c] > 0) {
        const std::uint32_t first = node.child[c];
        for (std::uint32_t i = 0; i < node.count[c]; ++i) {
          const std::uint32_t prim = prims[first + i];
          if (!soup.IsActive(prim)) continue;
          if (stats != nullptr) stats->triangle_tests++;
          double t = 0;
          bool front = true;
          if (policy.TriangleHit(soup, prim, t_min, t_max, &t, &front)) {
            hits->push_back({prim, t, front});
          }
        }
      } else {
        stack[top++] = {node.child[c], 0};
      }
    }
  }
}

}  // namespace

std::optional<Hit> Scene::CastRayBinary(const Ray& ray,
                                        TraversalStats* stats) const {
  const int axis = PositiveAxisOf(ray.direction);
  if (bvh_.empty()) return std::nullopt;
  return WithPolicy(axis, ray, [&](const auto& policy) {
    return CastClosest(soup_, bvh_, policy, ray.t_min, ray.t_max, stats);
  });
}

void Scene::CastRayCollectAllBinary(const Ray& ray, std::vector<Hit>* hits,
                                    TraversalStats* stats) const {
  const int axis = PositiveAxisOf(ray.direction);
  if (bvh_.empty()) return;
  WithPolicy(axis, ray, [&](const auto& policy) {
    CastAll(soup_, bvh_, policy, ray.t_min, ray.t_max, hits, stats);
  });
}

bool Scene::CastRayInto(const Ray& ray, Hit* hit, TraversalContext* ctx,
                        TraversalStats* stats) const {
  const int axis = PositiveAxisOf(ray.direction);
  if (bvh4_.empty()) return false;
  TraversalContext local;
  detail::TraversalStackEntry* stack =
      ctx != nullptr ? ctx->stack_ : local.stack_;
  return WithPolicy(axis, ray, [&](const auto& policy) {
    return CastClosest4(soup_, bvh4_, bvh_.prim_indices().data(), policy,
                        ray.t_min, ray.t_max, hit, stack, stats);
  });
}

std::optional<Hit> Scene::CastRay(const Ray& ray,
                                  TraversalStats* stats) const {
  Hit hit;
  if (!CastRayInto(ray, &hit, nullptr, stats)) return std::nullopt;
  return hit;
}

void Scene::CastRayCollectAll(const Ray& ray, std::vector<Hit>* hits,
                              TraversalStats* stats) const {
  const int axis = PositiveAxisOf(ray.direction);
  if (bvh4_.empty()) return;
  TraversalContext local;
  WithPolicy(axis, ray, [&](const auto& policy) {
    CastAll4(soup_, bvh4_, bvh_.prim_indices().data(), policy, ray.t_min,
             ray.t_max, hits, local.stack_, stats);
  });
}

void Scene::CastRayCollectAll(const Ray& ray, TraversalContext* ctx,
                              TraversalStats* stats) const {
  const int axis = PositiveAxisOf(ray.direction);
  ctx->hits.clear();
  if (bvh4_.empty()) return;
  WithPolicy(axis, ray, [&](const auto& policy) {
    CastAll4(soup_, bvh4_, bvh_.prim_indices().data(), policy, ray.t_min,
             ray.t_max, &ctx->hits, ctx->stack_, stats);
  });
}

void Scene::SaveState(util::ByteWriter* out) const {
  out->WritePodVector(soup_.raw_vertices());
  bvh_.SaveState(out);
  bvh4_.SaveState(out);
}

void Scene::LoadState(util::ByteReader* in) {
  soup_.RestoreRaw(in->ReadPodVector<float>());
  bvh_.LoadState(in);
  bvh4_.LoadState(in);
}

}  // namespace cgrx::rt
