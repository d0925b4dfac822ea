#ifndef CGRX_SRC_CORE_CGRX_INDEX_H_
#define CGRX_SRC_CORE_CGRX_INDEX_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/api/execution_policy.h"
#include "src/core/bucket_array.h"
#include "src/core/coherent.h"
#include "src/core/rep_scene.h"
#include "src/core/types.h"
#include "src/core/update_wave.h"
#include "src/rt/scene.h"
#include "src/storage/format.h"
#include "src/util/bloom_filter.h"
#include "src/util/key_mapping.h"
#include "src/util/radix_sort.h"

namespace cgrx::core {

/// Tuning knobs of cgRX (paper Section V analyses each).
struct CgrxConfig {
  /// Keys per bucket. The paper's robustness sweep picks 32 as the
  /// default (best throughput per memory footprint) and 256 as the
  /// space-efficient alternative.
  std::uint32_t bucket_size = 32;

  Representation representation = Representation::kOptimized;

  /// Layout/search combination for the bucket post-filter step. The
  /// paper settles on binary search over the row layout.
  BucketLayout bucket_layout = BucketLayout::kRow;
  BucketSearchAlgo bucket_search = BucketSearchAlgo::kBinary;

  /// Scaled key mapping k -> (k22:0, 2^15*k45:23, 2^25*k63:46)
  /// (Section V-A / Figure 9). Disable only for the scaling ablation.
  bool scaled_mapping = true;

  /// Triangle-flipping optimization (Section III-B); ablation switch.
  bool enable_flipping = true;

  /// Extension beyond the paper: a blocked Bloom miss-filter checked
  /// before firing rays. The paper's Figure 16 shows cgRX pays the full
  /// ray + bucket-search cost for in-range misses ("cgRX should be
  /// primarily used in hit-only or hit-mostly lookup scenarios"); the
  /// filter restores cheap misses for `bits_per_key` extra bits of
  /// footprint. 0 disables the filter (the paper's configuration).
  double miss_filter_bits_per_key = 0;

  /// Overrides the key mapping. Tests use the paper's running-example
  /// mapping k -> (k2:0, k4:3, k63:5) to exercise the multi-row and
  /// multi-plane ray paths with tiny key sets.
  std::optional<util::KeyMapping> mapping_override;
};

/// cgRX: the hardware-accelerated coarse-granular index (the paper's
/// primary contribution). A sorted key-rowID array is partitioned into
/// buckets; one representative triangle per bucket is placed in a 3D
/// scene indexed by the raytracing substrate; lookups fire a sequence of
/// at most five rays to locate the first representative >= key and then
/// post-filter the bucket.
///
/// `Key` is std::uint32_t or std::uint64_t (the two widths evaluated in
/// the paper). An update wave merges into the sorted array and rebuilds
/// the scene; use CgrxuIndex for the paper's node-based updatable
/// variant.
template <typename Key>
class CgrxIndex {
 public:
  using KeyType = Key;
  static constexpr int kKeyBits = static_cast<int>(sizeof(Key)) * 8;

  explicit CgrxIndex(const CgrxConfig& config = {})
      : config_(config),
        mapping_(config.mapping_override.value_or(
            util::KeyMapping::ForKeyBits(kKeyBits, config.scaled_mapping))) {
    // An empty array in the configured shape, so a wave applied before
    // any Build lays its entries out as Build would.
    buckets_.Build({}, {}, config_.bucket_size, config_.bucket_layout);
  }

  /// Bulk-loads `keys` with rowID = position (the paper's convention:
  /// "the final position in the shuffled sequence determines a key's
  /// rowID"). Sorting cost is part of the build, as in the evaluation.
  void Build(std::vector<Key> keys) {
    std::vector<std::uint32_t> row_ids(keys.size());
    for (std::size_t i = 0; i < row_ids.size(); ++i) {
      row_ids[i] = static_cast<std::uint32_t>(i);
    }
    Build(std::move(keys), std::move(row_ids));
  }

  /// Bulk-loads explicit key/rowID pairs (unsorted; sorted internally
  /// with the radix-sort substrate, mirroring CUB DeviceRadixSort).
  void Build(std::vector<Key> keys, std::vector<std::uint32_t> row_ids) {
    assert(keys.size() == row_ids.size());
    SortPairs(&keys, &row_ids);
    buckets_.Build(std::move(keys), std::move(row_ids), config_.bucket_size,
                   config_.bucket_layout);
    BuildScene();
  }

  /// Point lookup; returns all matching rowIDs aggregated (misses have
  /// match_count == 0). `rays_used`, when given, receives the number of
  /// rays fired (0 to 5, paper Section III).
  LookupResult PointLookup(Key key, int* rays_used = nullptr) const {
    LocalLookupCounters local;
    const LookupResult result = PointLookupCounted(key, rays_used, &local);
    counters_.Merge(local);
    return result;
  }

  /// Range lookup over [lo, hi]: one point-style ray sequence for the
  /// lower bound, then a linear scan of the contiguous key-rowID array
  /// (paper Section III-A).
  LookupResult RangeLookup(Key lo, Key hi) const {
    LocalLookupCounters local;
    const LookupResult result = RangeLookupCounted(lo, hi, &local);
    counters_.Merge(local);
    return result;
  }

  /// Batched point lookups, one logical device thread per query; the
  /// policy decides serial vs. pool-parallel execution. The batch runs
  /// through PipelinedBatch: stage 1 fires a key's rays and prefetches
  /// its bucket, stage 2 searches the bucket a few lookups later, so the
  /// fetch overlaps the next keys' traversals. Batches of at least
  /// kCoherentBatchMin keys also run in coherent key order, and results
  /// scatter back. Stat counters accumulate chunk-locally and merge once
  /// per chunk, keeping the shared atomics off the timed hot loop.
  void PointLookupBatch(const Key* keys, std::size_t count,
                        LookupResult* results,
                        const api::ExecutionPolicy& policy = {}) const {
    PipelinedBatch(
        keys, count, 256, policy, &counters_, results,
        [this](Key key, LocalLookupCounters* local,
               rt::TraversalContext* ctx) {
          return LocatePoint(key, local, ctx);
        },
        [this](Key key, std::optional<std::uint32_t> bucket) {
          return SearchPoint(key, bucket);
        });
  }

  /// Batched range lookups, pipelined and coherence-scheduled by lower
  /// bound like PointLookupBatch.
  void RangeLookupBatch(const KeyRange<Key>* ranges, std::size_t count,
                        LookupResult* results,
                        const api::ExecutionPolicy& policy = {}) const {
    PipelinedBatch(
        ranges, count, 16, policy, &counters_, results,
        [this](const KeyRange<Key>& r, LocalLookupCounters* local,
               rt::TraversalContext* ctx) {
          return LocateRange(r.lo, r.hi, local, ctx);
        },
        [this](const KeyRange<Key>& r, std::optional<std::uint32_t> bucket) {
          return ScanRange(r.lo, r.hi, bucket);
        });
  }

  /// Applies one combined update wave the way the paper updates cgRX
  /// ("cgRX [rebuild]", Fig. 18): keys on both sides cancel pairwise
  /// (core::CancelPairedUpdates), the surviving erases (one entry per
  /// erase key, the first in array order) and inserts (after the
  /// existing entries of their key) merge into the sorted key-rowID array
  /// in one pass, and the scene is rebuilt once. A wave that cancels to
  /// nothing leaves the index untouched. The policy is unused: the merge
  /// is one sequential pass, and the scene build runs on the global task
  /// scheduler as Build's does.
  void UpdateBatch(std::vector<Key> insert_keys,
                   std::vector<std::uint32_t> insert_rows,
                   std::vector<Key> erase_keys,
                   const api::ExecutionPolicy& /*policy*/ = {}) {
    assert(insert_keys.size() == insert_rows.size());
    CancelPairedUpdates(&insert_keys, &insert_rows, &erase_keys);
    if (insert_keys.empty() && erase_keys.empty()) return;
    buckets_.ApplyWave(insert_keys, insert_rows, erase_keys);
    BuildScene();
  }

  /// Inserts a batch: an UpdateBatch wave without erases, so one merge
  /// into the sorted array plus one scene rebuild. cgRX (non-u) has no
  /// incremental path.
  void InsertBatch(std::vector<Key> keys, std::vector<std::uint32_t> row_ids) {
    UpdateBatch(std::move(keys), std::move(row_ids), {});
  }

  /// Deletes one instance per requested key (multiset semantics); keys
  /// not present are ignored. An UpdateBatch wave without inserts.
  void EraseBatch(std::vector<Key> keys) {
    UpdateBatch({}, {}, std::move(keys));
  }

  /// Permanent memory footprint: key-rowID array + vertex buffer + BVH
  /// (+ the optional miss filter).
  std::size_t MemoryFootprintBytes() const {
    return buckets_.MemoryFootprintBytes() +
           rep_scene_.MemoryFootprintBytes() +
           (miss_filter_.empty() ? 0 : miss_filter_.MemoryFootprintBytes());
  }

  /// Cumulative lookup-path counters (rays, bucket probes, miss-filter
  /// rejections) feeding api::IndexStats.
  const LookupCounters& stat_counters() const { return counters_; }

  /// Native snapshot hook (storage layer, requires-detected by the
  /// adapter): persists the bucket array, the full representative scene
  /// (vertex buffer + binary BVH + quantized wide BVH) and the optional
  /// miss filter verbatim, so LoadState restores a built index without
  /// sorting, bucketing or BVH construction -- a snapshot load is a
  /// disk read plus buffer restores.
  void SaveState(storage::SnapshotWriter* out) const {
    buckets_.SaveState(out->AddSection("cgrx.buckets"));
    rep_scene_.SaveState(out->AddSection("cgrx.scene"));
    if (!miss_filter_.empty()) {
      miss_filter_.SaveState(out->AddSection("cgrx.filter"));
    }
  }

  void LoadState(const storage::SnapshotReader& in) {
    util::ByteReader buckets = in.Section("cgrx.buckets");
    buckets_.LoadState(&buckets);
    util::ByteReader scene = in.Section("cgrx.scene");
    rep_scene_.LoadState(&scene);
    if (in.Has("cgrx.filter")) {
      util::ByteReader filter = in.Section("cgrx.filter");
      miss_filter_.LoadState(&filter);
    } else {
      miss_filter_ = util::BloomFilter();
    }
  }

  std::size_t size() const { return buckets_.size(); }
  std::size_t num_buckets() const { return rep_scene_.num_buckets(); }
  bool multi_line() const { return rep_scene_.multi_line(); }
  bool multi_plane() const { return rep_scene_.multi_plane(); }
  const CgrxConfig& config() const { return config_; }
  const util::KeyMapping& mapping() const { return mapping_; }
  const rt::Scene& scene() const { return rep_scene_.scene(); }
  const RepScene& rep_scene() const { return rep_scene_; }
  const BucketArray<Key>& buckets() const { return buckets_; }

  /// Number of non-degenerate triangles in the scene (tests/ablation).
  std::size_t ActiveTriangleCount() const {
    return rep_scene_.ActiveTriangleCount();
  }

  /// Locates the bucket whose representative is the first >= `key`
  /// (nullopt when key exceeds the largest key). Exposed publicly for
  /// tests and the ray-count ablation.
  std::optional<std::uint32_t> LocateBucket(
      Key key, int* rays_used = nullptr,
      rt::TraversalContext* ctx = nullptr) const {
    return rep_scene_.Locate(static_cast<std::uint64_t>(key), rays_used, ctx);
  }

 private:
  /// Single-key lookups: both stages back to back.
  LookupResult PointLookupCounted(Key key, int* rays_used,
                                  LocalLookupCounters* counters) const {
    return SearchPoint(key, LocatePoint(key, counters, nullptr, rays_used));
  }

  LookupResult RangeLookupCounted(Key lo, Key hi,
                                  LocalLookupCounters* counters) const {
    return ScanRange(lo, hi, LocateRange(lo, hi, counters, nullptr));
  }

  /// Point stage 1: the miss filter, then the rays; a located bucket is
  /// counted and prefetched. A filter rejection fires no rays.
  std::optional<std::uint32_t> LocatePoint(Key key,
                                           LocalLookupCounters* counters,
                                           rt::TraversalContext* ctx,
                                           int* rays_used = nullptr) const {
    if (rays_used != nullptr) *rays_used = 0;
    if (!miss_filter_.empty() &&
        !miss_filter_.MayContain(static_cast<std::uint64_t>(key))) {
      ++counters->filter_rejections;
      return std::nullopt;  // Definitely absent; no rays fired.
    }
    int rays = 0;
    const auto bucket = LocateBucket(key, &rays, ctx);
    counters->rays_fired += static_cast<std::uint64_t>(rays);
    if (rays_used != nullptr) *rays_used = rays;
    if (bucket.has_value()) {
      ++counters->buckets_probed;
      buckets_.PrefetchBucket(*bucket);
    }
    return bucket;
  }

  /// Point stage 2: the post-filter of the located bucket.
  LookupResult SearchPoint(Key key,
                           std::optional<std::uint32_t> bucket) const {
    if (!bucket.has_value()) return LookupResult{};
    return buckets_.PointSearch(*bucket, key, config_.bucket_search);
  }

  /// Range stage 1: locates and prefetches the bucket of `lo`. An empty
  /// range, or one starting above the largest representative, fires no
  /// rays (paper: safe empty result).
  std::optional<std::uint32_t> LocateRange(Key lo, Key hi,
                                           LocalLookupCounters* counters,
                                           rt::TraversalContext* ctx) const {
    if (buckets_.empty() || lo > hi ||
        static_cast<std::uint64_t>(lo) > rep_scene_.max_rep()) {
      return std::nullopt;
    }
    int rays = 0;
    // lo <= max_rep here, so a bucket always resolves; the has_value
    // checks only protect against a corrupted scene.
    const auto bucket = LocateBucket(lo, &rays, ctx);
    counters->rays_fired += static_cast<std::uint64_t>(rays);
    if (bucket.has_value()) {
      ++counters->buckets_probed;
      buckets_.PrefetchBucket(*bucket);
    }
    return bucket;
  }

  /// Range stage 2: the scan from the located bucket.
  LookupResult ScanRange(Key lo, Key hi,
                         std::optional<std::uint32_t> bucket) const {
    if (!bucket.has_value()) return LookupResult{};
    return buckets_.RangeScan(*bucket, lo, hi);
  }

  static void SortPairs(std::vector<Key>* keys,
                        std::vector<std::uint32_t>* row_ids) {
    util::RadixSortPairs(keys, row_ids, kKeyBits);
  }

  /// Computes the per-bucket representatives and movability flags
  /// (paper rule (1): a representative may move to its row's end iff the
  /// next key lies in a different row) and rebuilds the scene (and the
  /// optional miss filter).
  void BuildScene() {
    if (config_.miss_filter_bits_per_key > 0) {
      miss_filter_ = util::BloomFilter(buckets_.size(),
                                       config_.miss_filter_bits_per_key);
      for (std::size_t i = 0; i < buckets_.size(); ++i) {
        miss_filter_.Insert(static_cast<std::uint64_t>(buckets_.KeyAt(i)));
      }
    } else {
      miss_filter_ = util::BloomFilter();
    }
    const std::size_t n = buckets_.size();
    const std::size_t num_buckets = buckets_.num_buckets();
    std::vector<std::uint64_t> reps(num_buckets);
    std::vector<std::uint8_t> movable(num_buckets);
    for (std::size_t b = 0; b < num_buckets; ++b) {
      reps[b] = static_cast<std::uint64_t>(buckets_.RepKey(b));
      const std::size_t rep_idx = buckets_.BucketEnd(b) - 1;
      movable[b] =
          rep_idx + 1 >= n ||
          mapping_.RowKey(static_cast<std::uint64_t>(
              buckets_.KeyAt(rep_idx + 1))) != mapping_.RowKey(reps[b]);
    }
    RepScene::Options options;
    options.representation = config_.representation;
    options.enable_flipping = config_.enable_flipping;
    rep_scene_.Build(reps, movable, mapping_, options);
  }

  CgrxConfig config_;
  util::KeyMapping mapping_;
  BucketArray<Key> buckets_;
  RepScene rep_scene_;
  util::BloomFilter miss_filter_;
  mutable LookupCounters counters_;
};

using CgrxIndex32 = CgrxIndex<std::uint32_t>;
using CgrxIndex64 = CgrxIndex<std::uint64_t>;

}  // namespace cgrx::core

#endif  // CGRX_SRC_CORE_CGRX_INDEX_H_
