#ifndef CGRX_SRC_RX_RX_INDEX_H_
#define CGRX_SRC_RX_RX_INDEX_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/api/execution_policy.h"
#include "src/core/coherent.h"
#include "src/core/types.h"
#include "src/rt/scene.h"
#include "src/storage/format.h"
#include "src/util/key_mapping.h"
#include "src/util/radix_sort.h"

namespace cgrx::rx {

/// Tuning knobs of the RX baseline.
struct RxConfig {
  /// RTIndeX [1] ships with the unscaled default mapping
  /// k -> (k22:0, k45:23, k63:46); kept as the baseline default.
  bool scaled_mapping = false;

  /// Extra vertex-buffer slots reserved ("parked") for insertions, as a
  /// fraction of the build size. Parked triangles sit at x = -2, outside
  /// every query ray, and are activated in place by inserts.
  double spare_capacity = 0.25;

  std::optional<util::KeyMapping> mapping_override;
};

/// RTIndeX (RX) -- the fine-granular predecessor of cgRX [1] and the
/// paper's main baseline. Every key is materialized as one triangle (36
/// bytes); a point lookup fires one length-limited x-ray through the
/// key's position; a range lookup fires one all-hits x-ray per grid row
/// covered by the range.
///
/// Updates come in two flavours, matching the paper's discussion:
///  * InsertBatchRefit / EraseBatchRefit mutate the vertex buffer and
///    refit the BVH (optixAccelBuild OPERATION_UPDATE). This is cheap
///    but degrades subsequent lookups -- the Figure 1c pathology --
///    because parked slots activated far from their BVH leaves inflate
///    bounding volumes.
///  * InsertBatchRebuild / EraseBatchRebuild rebuild from scratch (the
///    "RX [rebuild]" variant of Figure 18).
template <typename Key>
class RxIndex {
 public:
  using KeyType = Key;
  static constexpr int kKeyBits = static_cast<int>(sizeof(Key)) * 8;

  explicit RxIndex(const RxConfig& config = {})
      : config_(config),
        mapping_(config.mapping_override.value_or(
            util::KeyMapping::ForKeyBits(kKeyBits, config.scaled_mapping))) {
    dx_ = 0.5f;
    dy_ = mapping_.y_bits() > 0 ? 0.5f * mapping_.step_y() : 0.5f;
    dz_ = mapping_.z_bits() > 0 ? 0.5f * mapping_.step_z() : 0.5f;
  }

  /// Builds with rowID = position in `keys` (RX associates the rowID
  /// implicitly: "the triangle of k is materialized at position r in the
  /// vertex buffer").
  void Build(std::vector<Key> keys) {
    std::vector<std::uint32_t> rows(keys.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<std::uint32_t>(i);
    }
    Build(std::move(keys), std::move(rows));
  }

  void Build(std::vector<Key> keys, std::vector<std::uint32_t> row_ids) {
    assert(keys.size() == row_ids.size());
    scene_ = rt::Scene();
    key_of_slot_.clear();
    row_of_slot_.clear();
    free_slots_.clear();
    live_ = keys.size();
    const auto spare = static_cast<std::size_t>(
        static_cast<double>(keys.size()) * config_.spare_capacity);
    scene_.Reserve(keys.size() + spare);
    key_of_slot_.reserve(keys.size() + spare);
    row_of_slot_.reserve(keys.size() + spare);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto g = mapping_.GridOf(static_cast<std::uint64_t>(keys[i]));
      AddTriangleAt(g.x, g.y, g.z);
      key_of_slot_.push_back(keys[i]);
      row_of_slot_.push_back(row_ids[i]);
    }
    // Parked spare slots: real triangles at x = -2, unreachable by the
    // +x query rays (which start at x >= -0.5), activated by inserts.
    for (std::size_t i = 0; i < spare; ++i) {
      const std::uint32_t slot = AddTriangleAt(-2, 0, 0);
      key_of_slot_.push_back(Key{});
      row_of_slot_.push_back(0);
      free_slots_.push_back(slot);
    }
    scene_.Build();
  }

  /// Point lookup: one x-ray of length 1 through the key's position,
  /// collecting every hit (duplicate keys are distinct triangles at the
  /// same position).
  core::LookupResult PointLookup(Key key) const {
    core::LocalLookupCounters local;
    const core::LookupResult result = PointLookupCounted(key, &local);
    counters_.Merge(local);
    return result;
  }

  /// Range lookup [lo, hi]: one all-hits ray per grid row covered by the
  /// range ("firing one or multiple rays in parallel to the x-axis"),
  /// each limited to the in-range x-span of its row. A range covering
  /// at least as many rows as the vertex buffer has slots is answered
  /// by one pass over the slot table instead, firing no rays: a 64-bit
  /// range can span 2^41 rows.
  core::LookupResult RangeLookup(Key lo, Key hi) const {
    core::LocalLookupCounters local;
    const core::LookupResult result = RangeLookupCounted(lo, hi, &local);
    counters_.Merge(local);
    return result;
  }

  /// Batched point lookups through core::PipelinedBatch. RX has no
  /// post-filter, so its stage 1 is the whole lookup and stage 2 passes
  /// the result on. Batches of at least core::kCoherentBatchMin keys
  /// fire their rays in approximate key order so consecutive lookups hit
  /// neighbouring triangles, and results scatter back to their original
  /// slots.
  void PointLookupBatch(const Key* keys, std::size_t count,
                        core::LookupResult* results,
                        const api::ExecutionPolicy& policy = {}) const {
    core::PipelinedBatch(
        keys, count, 256, policy, &counters_, results,
        [this](Key key, core::LocalLookupCounters* local,
               rt::TraversalContext* ctx) {
          return PointLookupCounted(key, local, ctx);
        },
        [](Key, const core::LookupResult& result) { return result; });
  }

  /// Batched range lookups, coherence-scheduled by lower bound.
  void RangeLookupBatch(const core::KeyRange<Key>* ranges, std::size_t count,
                        core::LookupResult* results,
                        const api::ExecutionPolicy& policy = {}) const {
    core::PipelinedBatch(
        ranges, count, 16, policy, &counters_, results,
        [this](const core::KeyRange<Key>& r, core::LocalLookupCounters* local,
               rt::TraversalContext* ctx) {
          return RangeLookupCounted(r.lo, r.hi, local, ctx);
        },
        [](const core::KeyRange<Key>&, const core::LookupResult& result) {
          return result;
        });
  }

  /// Insert via slot recycling + BVH refit. Activating parked slots
  /// inflates the refitted bounding volumes, reproducing the paper's
  /// post-update lookup degradation (Figure 1c). Falls back to a full
  /// rebuild only when the spare capacity is exhausted.
  void InsertBatchRefit(const std::vector<Key>& keys,
                        const std::vector<std::uint32_t>& row_ids) {
    assert(keys.size() == row_ids.size());
    bool rebuilt = false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (free_slots_.empty()) {
        GrowAndRebuild(keys.size() - i);
        rebuilt = true;
      }
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      const auto g = mapping_.GridOf(static_cast<std::uint64_t>(keys[i]));
      SetTriangleAt(slot, g.x, g.y, g.z);
      key_of_slot_[slot] = keys[i];
      row_of_slot_[slot] = row_ids[i];
      ++live_;
    }
    if (!rebuilt) {
      scene_.Refit();
    } else {
      scene_.Build();
    }
  }

  /// Delete via ray lookup + triangle degeneration + refit. One instance
  /// per requested key.
  void EraseBatchRefit(const std::vector<Key>& keys) {
    for (const Key key : keys) {
      const auto g = mapping_.GridOf(static_cast<std::uint64_t>(key));
      std::vector<rt::Hit> hits;
      scene_.CastRayCollectAll(PointRay(g), &hits);
      if (hits.empty()) continue;
      const std::uint32_t slot = hits.front().primitive_index;
      scene_.SetDegenerateTriangle(slot);
      free_slots_.push_back(slot);
      --live_;
    }
    scene_.Refit();
  }

  /// Generic update entry points with the paper's Table I semantics:
  /// RX updates rebuild from scratch ("RX [rebuild]"). The refit-based
  /// variants above exist to reproduce the Figure 1c degradation.
  void InsertBatch(const std::vector<Key>& keys,
                   const std::vector<std::uint32_t>& row_ids) {
    InsertBatchRebuild(keys, row_ids);
  }

  void EraseBatch(std::vector<Key> keys) {
    EraseBatchRebuild(std::move(keys));
  }

  /// Full rebuild with the batch merged in (the "RX [rebuild]" bars).
  void InsertBatchRebuild(const std::vector<Key>& keys,
                          const std::vector<std::uint32_t>& row_ids) {
    auto [all_keys, all_rows] = LiveEntries();
    all_keys.insert(all_keys.end(), keys.begin(), keys.end());
    all_rows.insert(all_rows.end(), row_ids.begin(), row_ids.end());
    Build(std::move(all_keys), std::move(all_rows));
  }

  void EraseBatchRebuild(std::vector<Key> keys) {
    SortKeysOnly(&keys);
    auto [all_keys, all_rows] = LiveEntries();
    std::vector<Key> kept_keys;
    std::vector<std::uint32_t> kept_rows;
    kept_keys.reserve(all_keys.size());
    kept_rows.reserve(all_rows.size());
    std::vector<bool> used(keys.size(), false);
    for (std::size_t i = 0; i < all_keys.size(); ++i) {
      // One deletion consumes one instance; binary search for a match.
      const auto it =
          std::lower_bound(keys.begin(), keys.end(), all_keys[i]);
      bool deleted = false;
      for (auto j = static_cast<std::size_t>(it - keys.begin());
           j < keys.size() && keys[j] == all_keys[i]; ++j) {
        if (!used[j]) {
          used[j] = true;
          deleted = true;
          break;
        }
      }
      if (deleted) continue;
      kept_keys.push_back(all_keys[i]);
      kept_rows.push_back(all_rows[i]);
    }
    Build(std::move(kept_keys), std::move(kept_rows));
  }

  /// Vertex buffer (36 B per slot, the paper's RX overhead) + BVH + the
  /// rowID/key side tables.
  std::size_t MemoryFootprintBytes() const {
    return scene_.MemoryFootprintBytes() +
           row_of_slot_.size() * sizeof(std::uint32_t) +
           key_of_slot_.size() * sizeof(Key);
  }

  std::size_t size() const { return live_; }
  const rt::Scene& scene() const { return scene_; }
  const util::KeyMapping& mapping() const { return mapping_; }

  /// Cumulative rays fired by lookups, feeding api::IndexStats.
  const core::LookupCounters& stat_counters() const { return counters_; }

  /// Native snapshot hook: persists the scene (vertex buffer with
  /// parked spare slots intact, both BVHs) plus the slot side tables,
  /// so a load restores the exact triangle layout -- including the
  /// free-slot pool and any refit-degraded bounds -- without a rebuild.
  void SaveState(storage::SnapshotWriter* out) const {
    util::ByteWriter* w = out->AddSection("rx.slots");
    w->WriteU64(live_);
    w->WritePodVector(key_of_slot_);
    w->WritePodVector(row_of_slot_);
    w->WritePodVector(free_slots_);
    scene_.SaveState(out->AddSection("rx.scene"));
  }

  void LoadState(const storage::SnapshotReader& in) {
    util::ByteReader r = in.Section("rx.slots");
    live_ = static_cast<std::size_t>(r.ReadU64());
    key_of_slot_ = r.ReadPodVector<Key>();
    row_of_slot_ = r.ReadPodVector<std::uint32_t>();
    free_slots_ = r.ReadPodVector<std::uint32_t>();
    util::ByteReader scene = in.Section("rx.scene");
    scene_.LoadState(&scene);
  }

 private:
  core::LookupResult PointLookupCounted(
      Key key, core::LocalLookupCounters* counters,
      rt::TraversalContext* ctx = nullptr) const {
    core::LookupResult result;
    if (scene_.triangle_count() == 0) return result;
    const auto g = mapping_.GridOf(static_cast<std::uint64_t>(key));
    rt::TraversalContext local;
    if (ctx == nullptr) ctx = &local;
    ++counters->rays_fired;
    scene_.CastRayCollectAll(PointRay(g), ctx);
    for (const rt::Hit& h : ctx->hits) {
      result.Accumulate(row_of_slot_[h.primitive_index]);
    }
    return result;
  }

  core::LookupResult RangeLookupCounted(
      Key lo, Key hi, core::LocalLookupCounters* counters,
      rt::TraversalContext* ctx = nullptr) const {
    core::LookupResult result;
    if (scene_.triangle_count() == 0 || lo > hi) return result;
    const std::uint64_t row_lo = mapping_.RowKey(lo);
    const std::uint64_t row_hi = mapping_.RowKey(hi);
    if (row_hi - row_lo >= key_of_slot_.size()) {
      for (std::uint32_t s = 0; s < key_of_slot_.size(); ++s) {
        if (key_of_slot_[s] >= lo && key_of_slot_[s] <= hi && IsLiveSlot(s)) {
          result.Accumulate(row_of_slot_[s]);
        }
      }
      return result;
    }
    rt::TraversalContext local;
    if (ctx == nullptr) ctx = &local;
    for (std::uint64_t row = row_lo; row <= row_hi; ++row) {
      const std::uint32_t x_lo =
          row == row_lo ? mapping_.GridOf(static_cast<std::uint64_t>(lo)).x
                        : 0;
      const std::uint32_t x_hi =
          row == row_hi ? mapping_.GridOf(static_cast<std::uint64_t>(hi)).x
                        : mapping_.x_max();
      ++counters->rays_fired;
      scene_.CastRayCollectAll(RowSegmentRay(row, x_lo, x_hi), ctx);
      for (const rt::Hit& h : ctx->hits) {
        result.Accumulate(row_of_slot_[h.primitive_index]);
      }
    }
    return result;
  }

  static void SortKeysOnly(std::vector<Key>* keys) {
    util::RadixSortKeys(keys, kKeyBits);
  }

  std::pair<std::vector<Key>, std::vector<std::uint32_t>> LiveEntries()
      const {
    std::vector<Key> keys;
    std::vector<std::uint32_t> rows;
    keys.reserve(live_);
    rows.reserve(live_);
    for (std::uint32_t s = 0; s < key_of_slot_.size(); ++s) {
      if (IsLiveSlot(s)) {
        keys.push_back(key_of_slot_[s]);
        rows.push_back(row_of_slot_[s]);
      }
    }
    return {std::move(keys), std::move(rows)};
  }

  /// A slot holds a live key when its triangle is active and is not
  /// parked: parked slots are active triangles at x = -2, data slots are
  /// at x >= -0.5, and erased slots are degenerate.
  bool IsLiveSlot(std::uint32_t slot) const {
    return scene_.soup().IsActive(slot) &&
           scene_.soup().Vertex(slot, 0).x >= -1.0f;
  }

  void GrowAndRebuild(std::size_t more) {
    const std::size_t spare = std::max<std::size_t>(more, live_ / 4 + 1);
    auto [keys, rows] = LiveEntries();
    const RxConfig saved = config_;
    config_.spare_capacity =
        static_cast<double>(spare) / std::max<std::size_t>(1, keys.size());
    Build(std::move(keys), std::move(rows));
    config_ = saved;
  }

  std::uint32_t AddTriangleAt(std::int64_t gx, std::int64_t gy,
                              std::int64_t gz) {
    const rt::Vec3f c{mapping_.WorldX(gx), mapping_.WorldY(gy),
                      mapping_.WorldZ(gz)};
    return scene_.AddTriangle({c.x, c.y + dy_, c.z - dz_},
                              {c.x + dx_, c.y - dy_, c.z},
                              {c.x - dx_, c.y, c.z + dz_});
  }

  void SetTriangleAt(std::uint32_t slot, std::int64_t gx, std::int64_t gy,
                     std::int64_t gz) {
    const rt::Vec3f c{mapping_.WorldX(gx), mapping_.WorldY(gy),
                      mapping_.WorldZ(gz)};
    scene_.SetTriangle(slot, {c.x, c.y + dy_, c.z - dz_},
                       {c.x + dx_, c.y - dy_, c.z},
                       {c.x - dx_, c.y, c.z + dz_});
  }

  rt::Ray PointRay(const util::GridCoords& g) const {
    rt::Ray ray;
    ray.origin = {mapping_.WorldX(g.x) - 0.5f, mapping_.WorldY(g.y),
                  mapping_.WorldZ(g.z)};
    ray.direction = {1, 0, 0};
    ray.t_min = 0;
    ray.t_max = 1.0f;  // Exactly one grid position.
    return ray;
  }

  rt::Ray RowSegmentRay(std::uint64_t row, std::uint32_t x_lo,
                        std::uint32_t x_hi) const {
    const auto y = static_cast<std::int64_t>(
        row & ((1ULL << mapping_.y_bits()) - 1));
    const auto z = static_cast<std::int64_t>(row >> mapping_.y_bits());
    rt::Ray ray;
    ray.origin = {mapping_.WorldX(x_lo) - 0.5f, mapping_.WorldY(y),
                  mapping_.WorldZ(z)};
    ray.direction = {1, 0, 0};
    ray.t_min = 0;
    ray.t_max = static_cast<float>(x_hi - x_lo) + 1.0f;
    return ray;
  }

  RxConfig config_;
  util::KeyMapping mapping_;
  rt::Scene scene_;
  std::vector<Key> key_of_slot_;
  std::vector<std::uint32_t> row_of_slot_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  mutable core::LookupCounters counters_;
  float dx_ = 0.5f;
  float dy_ = 0.5f;
  float dz_ = 0.5f;
};

using RxIndex32 = RxIndex<std::uint32_t>;
using RxIndex64 = RxIndex<std::uint64_t>;

}  // namespace cgrx::rx

#endif  // CGRX_SRC_RX_RX_INDEX_H_
