#ifndef CGRX_SRC_RT_BVH_H_
#define CGRX_SRC_RT_BVH_H_

#include <cstdint>
#include <vector>

#include "src/rt/aabb.h"
#include "src/rt/triangle.h"
#include "src/util/serial.h"

namespace cgrx::rt {

/// Bounding volume hierarchy over the active triangles of a
/// TriangleSoup. Stand-in for the acceleration structure built by
/// optixAccelBuild (DESIGN.md Section 2). The GPU driver's builder is
/// proprietary; this one is a binned-SAH build, which reproduces the
/// row-clustering behaviour the scaled key mapping targets (Figure 9),
/// with leaves of at most kMaxLeafSize primitives.
///
/// Nodes are stored parent-before-children, so Refit() can run a single
/// reverse sweep; leaves reference a packed primitive-index array.
///
/// Build() is parallel on the process-wide TaskScheduler: the top
/// splits run parallel reductions, bin histograms and a stable
/// partition over the full range, and once ranges fall under a fixed
/// (thread-count-independent) cutoff the remaining subtrees build
/// concurrently into fragments spliced at deterministic offsets -- so
/// the resulting node array is byte-identical whatever the thread
/// count, including fully serial execution.
class Bvh {
 public:
  struct Node {
    Aabb bounds;
    /// Internal nodes: index of the left child (right = left + 1).
    /// Leaves: first entry in prim_indices().
    std::uint32_t left_or_first = 0;
    std::uint16_t prim_count = 0;  ///< 0 for internal nodes.
    std::uint16_t axis = 0;        ///< Split axis, traversal order hint.

    bool IsLeaf() const { return prim_count > 0; }
  };

  /// Most primitives per leaf. The collapsed wide BVH stores a leaf's
  /// primitive count in a byte, so the cap must stay below 256.
  static constexpr std::uint32_t kMaxLeafSize = 4;

  /// Builds the hierarchy over all active slots of `soup`. Degenerate
  /// slots are culled (they keep their primitive index but belong to no
  /// leaf, like zero-area triangles in hardware builders).
  void Build(const TriangleSoup& soup);

  /// Recomputes all node bounds from the current vertex data without
  /// restructuring -- the exact analogue of
  /// optixAccelBuild(OPERATION_UPDATE) whose use after updates causes
  /// the RX lookup collapse shown in the paper's Figure 1c. Primitives
  /// that became active since Build() are NOT added; primitives that
  /// moved inflate their leaf's bounds.
  ///
  /// Large trees refit level-parallel on the TaskScheduler: nodes are
  /// bucketed by depth once per topology, then levels sweep bottom-up
  /// with every node of a level processed concurrently (a node depends
  /// only on its children, which live exactly one level deeper). Each
  /// node's bounds are computed from the same inputs by the same float
  /// ops as the serial reverse sweep, so the refitted node array is
  /// byte-identical at any thread count (pinned by bvh4_test).
  void Refit(const TriangleSoup& soup);

  bool empty() const { return nodes_.empty(); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<std::uint32_t>& prim_indices() const {
    return prim_indices_;
  }

  /// Bytes held by nodes and the primitive index array.
  std::size_t MemoryBytes() const {
    return nodes_.size() * sizeof(Node) +
           prim_indices_.size() * sizeof(std::uint32_t);
  }

  /// Maximum leaf depth (diagnostics / tests).
  int Depth() const;

  /// Serializes nodes and the packed primitive index array (the entire
  /// structure -- a load needs no rebuild, and Refit() keeps working
  /// because the level buckets are derived lazily from the topology).
  void SaveState(util::ByteWriter* out) const;
  void LoadState(util::ByteReader* in);

 private:
  struct BuildPrim {
    Aabb bounds;
    Vec3f centroid;
    std::uint32_t index = 0;
  };

  /// A node slot awaiting construction over prims [begin, end).
  struct BuildWork {
    std::uint32_t node;
    std::uint32_t begin;
    std::uint32_t end;
    int depth;
  };

  /// Drains `stack`, splitting ranges and allocating child slots in
  /// `*nodes`. With a non-null `frontier`, work items whose range is at
  /// most `fragment_cutoff` are deferred there instead of processed
  /// (the parallel-subtree handoff); large ranges additionally use
  /// parallel reductions/partitions. Leaves reference prims by their
  /// global array position (see Build), so emission order is free.
  static void BuildRanges(std::vector<BuildPrim>* prims,
                          std::vector<BuildWork> stack,
                          std::vector<Node>* nodes,
                          std::vector<BuildWork>* frontier,
                          std::uint32_t fragment_cutoff);

  /// Partitions [begin, end) at the binned-SAH split and returns the
  /// split position; returns `begin` or `end` when no split is useful
  /// (caller falls back to a median cut).
  static std::uint32_t Partition(std::vector<BuildPrim>* prims,
                                 std::uint32_t begin, std::uint32_t end,
                                 int* axis);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> prim_indices_;
  /// Level-parallel Refit scaffolding, derived lazily from the
  /// topology on the first large refit and reused until Build() or
  /// LoadState() replaces the nodes: node indices grouped by depth
  /// (refit_levels_) and the per-depth [start, end) offsets into it
  /// (refit_level_start_). Host-side bookkeeping, not serialized.
  std::vector<std::uint32_t> refit_levels_;
  std::vector<std::uint32_t> refit_level_start_;
};

}  // namespace cgrx::rt

#endif  // CGRX_SRC_RT_BVH_H_
