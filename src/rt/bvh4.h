#ifndef CGRX_SRC_RT_BVH4_H_
#define CGRX_SRC_RT_BVH4_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/rt/aabb.h"
#include "src/rt/bvh.h"
#include "src/util/serial.h"

namespace cgrx::rt {

/// Collapsed 4-wide BVH with quantized child bounds -- the compact
/// structure every lookup ray traverses.
///
/// The binary Bvh stays the build/refit substrate (its topology is what
/// hardware builders produce); Bvh4 is flattened from it: every node absorbs up to three binary
/// internal nodes and exposes their up-to-four subtrees as children.
/// Child AABBs are stored as uint8 grid offsets against the node's own
/// bounds (the parent frame), with one power-of-two dequantization scale
/// per axis, as in compressed-wide-BVH layouts. Quantization is
/// conservative: a dequantized child box always contains the exact
/// binary child bounds, so traversal can only visit more, never fewer,
/// primitives than the binary reference.
///
/// One node is exactly 64 bytes (one cache line); a node's four children
/// are tested against a ray in a single pass over that line.
class Bvh4 {
 public:
  static constexpr int kWidth = 4;

  struct alignas(64) Node {
    Vec3f origin;                     ///< Parent frame: own bounds min.
    std::uint8_t exp[3] = {0, 0, 0};  ///< Biased pow-2 scale per axis.
    std::uint8_t num_children = 0;
    std::uint8_t qlo[3][kWidth] = {};  ///< [axis][child] quantized mins.
    std::uint8_t qhi[3][kWidth] = {};  ///< [axis][child] quantized maxs.
    /// Leaf children: primitive count (> 0); internal children: 0.
    std::uint8_t count[kWidth] = {};
    /// Leaf children: first entry in prim_indices(); internal children:
    /// node index.
    std::uint32_t child[kWidth] = {};

    /// Dequantization scale of `axis` (exact power of two).
    float Scale(int axis) const {
      return std::bit_cast<float>(static_cast<std::uint32_t>(exp[axis])
                                  << 23);
    }
  };
  static_assert(sizeof(Node) == 64, "Bvh4 node must be one cache line");

  /// Flattens `source` (collapse + quantize), called after a binary
  /// Build(). Leaf children reference the binary BVH's packed
  /// prim_indices() array directly -- the collapse preserves its DFS
  /// primitive order, so the array is shared between the two structures
  /// rather than duplicated (the traverser is handed it alongside the
  /// nodes).
  void Build(const Bvh& source);

  /// Requantizes every node's child bounds from the refitted binary
  /// nodes without re-collapsing, so -- exactly like the binary
  /// Refit() -- the wide topology keeps the structure of the last full
  /// Build() and only the bounds (and therefore lookup cost) change.
  /// Falls back to Build() when no topology exists yet.
  void Refit(const Bvh& source);

  bool empty() const { return nodes_.empty(); }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Bytes held by the wide node array (the structure's own storage;
  /// the primitive index array is shared with the source binary BVH).
  std::size_t MemoryBytes() const { return nodes_.size() * sizeof(Node); }

  /// Serializes the quantized SoA node array verbatim (plus the refit
  /// scaffolding), so a snapshot load restores the exact bytes the
  /// collapse produced -- no re-collapse, no requantization, and
  /// therefore bit-identical traversal behaviour.
  void SaveState(util::ByteWriter* out) const;
  void LoadState(util::ByteReader* in);

 private:
  std::vector<Node> nodes_;
  /// Refit scaffolding (host-side, like the binary BVH itself): the
  /// binary node each child was collapsed from, so Refit() can
  /// requantize bounds without re-deriving the topology.
  std::vector<std::array<std::uint32_t, kWidth>> child_source_;
};

}  // namespace cgrx::rt

#endif  // CGRX_SRC_RT_BVH4_H_
