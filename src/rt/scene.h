#ifndef CGRX_SRC_RT_SCENE_H_
#define CGRX_SRC_RT_SCENE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/rt/bvh.h"
#include "src/rt/bvh4.h"
#include "src/rt/ray.h"
#include "src/rt/triangle.h"

namespace cgrx::rt {

/// Counters exposed by the traverser, the software analogue of the
/// hardware profiler data the paper cites (intersection-test counts
/// drive the Figure 9 scaling argument).
struct TraversalStats {
  std::uint64_t nodes_visited = 0;
  std::uint64_t triangle_tests = 0;

  void Add(const TraversalStats& other) {
    nodes_visited += other.nodes_visited;
    triangle_tests += other.triangle_tests;
  }
};

namespace detail {
/// One traversal stack slot: a node index plus its ray entry distance
/// (ignored by unordered collect-all walks).
struct TraversalStackEntry {
  std::uint32_t node;
  double t;
};
}  // namespace detail

/// Reusable per-thread traversal scratch. Batch lookups create one per
/// chunk and pass it through every cast, so the traversal stack and the
/// collect-all hit buffer are allocated once per chunk instead of once
/// per ray (RX point lookups previously paid one heap-allocated
/// std::vector<Hit> per query).
class TraversalContext {
 public:
  /// Collect-all results land here (cleared per cast).
  std::vector<Hit> hits;

 private:
  friend class Scene;
  // Bounded by (max children - 1) pushes per level over the depth-capped
  // tree (binary builder forces median cuts below depth 48); 320 leaves
  // ample slack for the degenerate all-duplicates input.
  static constexpr int kStackCapacity = 320;
  detail::TraversalStackEntry stack_[kStackCapacity];
};

/// A 3D scene plus its acceleration structures: the OptiX-equivalent
/// substrate every raytracing index in this repository is built on.
///
///  * geometry mutation mirrors vertex-buffer writes,
///  * Build() mirrors optixAccelBuild (full build),
///  * Refit() mirrors optixAccelBuild(OPERATION_UPDATE),
///  * CastRay()/CastRayInto() mirror optixTrace with closest-hit
///    semantics,
///  * CastRayCollectAll() mirrors an any-hit program that ignores every
///    intersection to enumerate all hits (RX range lookups).
///
/// Every cast takes a +x, +y or +z unit ray, the only rays the indexes
/// fire (paper Sections II-III), and throws std::invalid_argument for
/// any other direction, whether or not the scene holds triangles. The
/// fixed direction turns the box test into interval compares and the
/// triangle test into 2D edge functions (DESIGN.md Section 2).
///
/// Lookup rays traverse the collapsed 4-ary quantized Bvh4. The binary
/// BVH it is flattened from stays as the build and refit substrate and
/// as the reference oracle (CastRayBinary/CastRayCollectAllBinary).
/// Closest-hit casts break ties on the ray parameter deterministically
/// (lowest primitive index wins), so both traversals return
/// bit-identical results regardless of visit order.
class Scene {
 public:
  /// Appends a triangle; returns its primitive index.
  std::uint32_t AddTriangle(const Vec3f& v0, const Vec3f& v1,
                            const Vec3f& v2) {
    return soup_.Add(v0, v1, v2);
  }

  /// Appends an unhittable placeholder slot (hole).
  std::uint32_t AddDegenerateTriangle() { return soup_.AddDegenerate(); }

  /// Overwrites a slot (requires Refit()/Build() to take effect in the
  /// acceleration structure, exactly like hardware).
  void SetTriangle(std::uint32_t index, const Vec3f& v0, const Vec3f& v1,
                   const Vec3f& v2) {
    soup_.Set(index, v0, v1, v2);
  }

  void SetDegenerateTriangle(std::uint32_t index) {
    soup_.SetDegenerate(index);
  }

  /// (Re)builds the acceleration structures from scratch: the binary
  /// BVH is the build substrate, then flattened into the wide Bvh4 that
  /// lookup rays traverse.
  void Build() {
    bvh_.Build(soup_);
    bvh4_.Build(bvh_);
  }

  /// Refits bounds only; topology (and therefore lookup cost) keeps the
  /// structure of the last full Build() in both BVHs: the binary BVH
  /// refits bottom-up, the wide BVH requantizes its child bounds from
  /// the refitted binary nodes without re-collapsing.
  void Refit() {
    bvh_.Refit(soup_);
    bvh4_.Refit(bvh_);
  }

  /// Closest hit along `ray`, or nullopt.
  std::optional<Hit> CastRay(const Ray& ray,
                             TraversalStats* stats = nullptr) const;

  /// Optional-free closest hit: returns whether `*hit` was filled.
  /// `ctx` (optional) supplies the reusable traversal stack.
  bool CastRayInto(const Ray& ray, Hit* hit, TraversalContext* ctx = nullptr,
                   TraversalStats* stats = nullptr) const;

  /// Appends every hit in [t_min, t_max] to `*hits` (unordered).
  void CastRayCollectAll(const Ray& ray, std::vector<Hit>* hits,
                         TraversalStats* stats = nullptr) const;

  /// Collect-all into the context's reusable hit buffer (`ctx->hits` is
  /// cleared first).
  void CastRayCollectAll(const Ray& ray, TraversalContext* ctx,
                         TraversalStats* stats = nullptr) const;

  /// The same two casts over the binary BVH: the reference oracle of
  /// the equivalence tests and the microbenchmarks' baseline.
  std::optional<Hit> CastRayBinary(const Ray& ray,
                                   TraversalStats* stats = nullptr) const;
  void CastRayCollectAllBinary(const Ray& ray, std::vector<Hit>* hits,
                               TraversalStats* stats = nullptr) const;

  const TriangleSoup& soup() const { return soup_; }
  const Bvh& bvh() const { return bvh_; }
  const Bvh4& bvh4() const { return bvh4_; }
  std::size_t triangle_count() const { return soup_.size(); }

  /// Vertex buffer + acceleration structure bytes (the scene part of an
  /// index's permanent memory footprint). Counts the wide structure
  /// lookups traverse -- the binary BVH additionally held as build/refit
  /// scaffolding and oracle is host-side bookkeeping, not device-resident
  /// state, matching how hardware keeps only the final acceleration
  /// structure on the device. The wide BVH shares the binary builder's
  /// packed primitive index array, which is therefore part of its
  /// resident footprint.
  std::size_t MemoryFootprintBytes() const {
    return soup_.MemoryBytes() + bvh4_.MemoryBytes() +
           bvh_.prim_indices().size() * sizeof(std::uint32_t);
  }

  void Reserve(std::size_t triangles) { soup_.Reserve(triangles); }

  /// Serializes the vertex buffer and both acceleration structures.
  /// Loading restores the exact built state -- the binary BVH and the
  /// quantized wide BVH come back byte-identical, so no rebuild (and no
  /// collapse/quantization) runs on open.
  void SaveState(util::ByteWriter* out) const;
  void LoadState(util::ByteReader* in);

 private:
  TriangleSoup soup_;
  Bvh bvh_;
  Bvh4 bvh4_;
};

}  // namespace cgrx::rt

#endif  // CGRX_SRC_RT_SCENE_H_
