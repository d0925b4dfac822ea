#ifndef CGRX_SRC_API_SHARDED_INDEX_H_
#define CGRX_SRC_API_SHARDED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/api/execution_policy.h"
#include "src/api/index.h"
#include "src/api/index_options.h"
#include "src/core/types.h"
#include "src/storage/format.h"
#include "src/util/task_scheduler.h"

namespace cgrx::api {

/// A composite api::Index that partitions the key space over N inner
/// indexes and fans every batch entry point out shard-parallel over the
/// work-stealing scheduler, passing the caller's ExecutionPolicy down
/// to every inner batch: under a parallel policy the shard fan-out and
/// the per-shard batches nest on the same scheduler (shard x inner
/// parallelism), so a skewed batch that lands mostly on one shard still
/// uses every thread instead of one. Results and IndexStats merge
/// across shards, so a ShardedIndex is observably identical to its
/// unsharded backend -- the conformance suite asserts this for lookups
/// and interleaved update waves, under serial, parallel and
/// nested-parallel execution.
///
/// Constructed by MakeIndex with one "sharded:" name prefix:
/// MakeIndex("sharded:cgrxu", options) creates
/// IndexOptions::shard_count inner "cgrxu" indexes partitioned by
/// IndexOptions::shard_scheme. Shards are plain backends, never
/// composites.
template <typename Key>
class ShardedIndex final : public Index<Key> {
 public:
  ShardedIndex(std::string name, std::vector<IndexPtr<Key>> shards,
               ShardScheme scheme)
      : name_(std::move(name)), shards_(std::move(shards)), scheme_(scheme) {
    if (shards_.empty()) {
      throw std::invalid_argument("ShardedIndex needs at least one shard");
    }
    for (const IndexPtr<Key>& shard : shards_) {
      if (shard == nullptr) {
        throw std::invalid_argument("ShardedIndex given a null shard");
      }
    }
  }

  std::string_view name() const override { return name_; }

  /// The intersection of the inner capabilities (homogeneous shards in
  /// practice, so normally just the backend's own capability set).
  Capabilities capabilities() const override {
    Capabilities caps = shards_.front()->capabilities();
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      const Capabilities other = shards_[s]->capabilities();
      caps.point_lookup = caps.point_lookup && other.point_lookup;
      caps.range_lookup = caps.range_lookup && other.range_lookup;
      caps.updates = caps.updates && other.updates;
      caps.combined_updates = caps.combined_updates && other.combined_updates;
      caps.persistence = caps.persistence && other.persistence;
    }
    return caps;
  }

  /// Persists the composite: a "sharded.meta" section (scheme, shard
  /// count, range boundaries) plus every shard's own sections under a
  /// "shard<i>." prefix -- per-shard sections with per-section
  /// checksums, serialized shard-parallel on the TaskScheduler.
  void SaveState(storage::SnapshotWriter* out) const override {
    if (!capabilities().persistence) {
      throw UnsupportedOperationError(name(), "persistence");
    }
    util::ByteWriter* meta = out->AddSection("sharded.meta");
    meta->WriteU8(static_cast<std::uint8_t>(scheme_));
    meta->WriteU32(static_cast<std::uint32_t>(shards_.size()));
    meta->WritePodVector(upper_bounds_);
    util::TaskScheduler::Global().ParallelFor(
        0, shards_.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            storage::SnapshotWriter sub =
                out->Sub("shard" + std::to_string(s) + ".");
            shards_[s]->SaveState(&sub);
          }
        });
  }

  void LoadState(const storage::SnapshotReader& in) override {
    util::ByteReader meta = in.Section("sharded.meta");
    const auto scheme = static_cast<ShardScheme>(meta.ReadU8());
    const std::uint32_t count = meta.ReadU32();
    if (scheme != scheme_ || count != shards_.size()) {
      throw storage::CorruptionError(
          std::string(name()) + ": snapshot holds " + std::to_string(count) +
          " shards, this composite was created with " +
          std::to_string(shards_.size()) +
          " (shard count and scheme come from the snapshot's options)");
    }
    upper_bounds_ = meta.ReadPodVector<Key>();
    util::TaskScheduler::Global().ParallelFor(
        0, shards_.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            shards_[s]->LoadState(in.Sub("shard" + std::to_string(s) + "."));
          }
        });
  }

  void Build(std::vector<Key> keys) override {
    std::vector<std::uint32_t> rows(keys.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<std::uint32_t>(i);
    }
    Build(std::move(keys), std::move(rows));
  }

  /// Partitions the pairs over the shards (computing the range
  /// boundaries first under kRange) and bulk-loads every shard. Shard
  /// builds run scheduler-parallel; inner Build implementations (BVH
  /// construction, radix sorts) are themselves parallel and nest on the
  /// same scheduler.
  void Build(std::vector<Key> keys,
             std::vector<std::uint32_t> row_ids) override {
    if (keys.size() != row_ids.size()) {
      throw std::invalid_argument("Build: keys/row_ids size mismatch");
    }
    if (scheme_ == ShardScheme::kRange) ComputeRangeBounds(keys);
    std::vector<std::vector<Key>> shard_keys(shards_.size());
    std::vector<std::vector<std::uint32_t>> shard_rows(shards_.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t s = ShardOf(keys[i]);
      shard_keys[s].push_back(keys[i]);
      shard_rows[s].push_back(row_ids[i]);
    }
    util::TaskScheduler::Global().ParallelFor(
        0, shards_.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            shards_[s]->Build(std::move(shard_keys[s]),
                              std::move(shard_rows[s]));
          }
        });
  }

  IndexStats Stats() const override {
    IndexStats merged;
    for (const IndexPtr<Key>& shard : shards_) {
      const IndexStats stats = shard->Stats();
      merged.memory_bytes += stats.memory_bytes;
      merged.entries += stats.entries;
      merged.rays_fired += stats.rays_fired;
      merged.buckets_probed += stats.buckets_probed;
      merged.filter_rejections += stats.filter_rejections;
      merged.update_buckets_swept += stats.update_buckets_swept;
    }
    return merged;
  }

  std::size_t size() const override {
    std::size_t total = 0;
    for (const IndexPtr<Key>& shard : shards_) total += shard->size();
    return total;
  }

  ShardScheme scheme() const { return scheme_; }
  std::size_t shard_count() const { return shards_.size(); }
  const std::vector<IndexPtr<Key>>& shards() const { return shards_; }

  /// Shard owning `key` (routing is fixed after Build under kRange;
  /// purely arithmetic under kHash).
  std::size_t ShardOf(Key key) const {
    if (scheme_ == ShardScheme::kHash) {
      return static_cast<std::size_t>(
          HashMix(static_cast<std::uint64_t>(key)) % shards_.size());
    }
    const auto it =
        std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), key);
    return it == upper_bounds_.end()
               ? shards_.size() - 1
               : static_cast<std::size_t>(it - upper_bounds_.begin());
  }

 protected:
  // Each override re-checks the merged capabilities up front so an
  // unsupported operation throws on the calling thread instead of
  // escaping from a scheduler worker.
  void DoPointLookupBatch(const Key* keys, std::size_t count,
                          core::LookupResult* results,
                          const ExecutionPolicy& policy) const override {
    if (!capabilities().point_lookup) {
      throw UnsupportedOperationError(name(), "point lookups");
    }
    std::vector<std::vector<Key>> shard_keys(shards_.size());
    std::vector<std::vector<std::size_t>> shard_orig(shards_.size());
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t s = ShardOf(keys[i]);
      shard_keys[s].push_back(keys[i]);
      shard_orig[s].push_back(i);
    }
    // Every key routes to exactly one shard, so shards scatter straight
    // into disjoint caller slots.
    FanOut(policy, [&](std::size_t s) {
      if (shard_keys[s].empty()) return;
      std::vector<core::LookupResult> local(shard_keys[s].size());
      shards_[s]->PointLookupBatch(shard_keys[s].data(), shard_keys[s].size(),
                                   local.data(), policy);
      for (std::size_t j = 0; j < local.size(); ++j) {
        results[shard_orig[s][j]] = local[j];
      }
    });
  }

  void DoRangeLookupBatch(const core::KeyRange<Key>* ranges,
                          std::size_t count, core::LookupResult* results,
                          const ExecutionPolicy& policy) const override {
    if (!capabilities().range_lookup) {
      throw UnsupportedOperationError(name(), "range lookups");
    }
    // A range can span several shards (kRange) or all of them (kHash);
    // per-shard partial aggregates merge after the fan-out joins.
    std::vector<std::vector<std::size_t>> shard_orig(shards_.size());
    for (std::size_t i = 0; i < count; ++i) {
      if (ranges[i].lo > ranges[i].hi) continue;  // Empty: stays a miss.
      if (scheme_ == ShardScheme::kHash) {
        for (std::size_t s = 0; s < shards_.size(); ++s) {
          shard_orig[s].push_back(i);
        }
      } else {
        const std::size_t first = ShardOf(ranges[i].lo);
        const std::size_t last = std::max(first, ShardOf(ranges[i].hi));
        for (std::size_t s = first; s <= last; ++s) {
          shard_orig[s].push_back(i);
        }
      }
    }
    std::vector<std::vector<core::LookupResult>> partial(shards_.size());
    FanOut(policy, [&](std::size_t s) {
      if (shard_orig[s].empty()) return;
      std::vector<core::KeyRange<Key>> local_ranges(shard_orig[s].size());
      for (std::size_t j = 0; j < shard_orig[s].size(); ++j) {
        local_ranges[j] = ranges[shard_orig[s][j]];
      }
      partial[s].resize(local_ranges.size());
      shards_[s]->RangeLookupBatch(local_ranges.data(), local_ranges.size(),
                                   partial[s].data(), policy);
    });
    for (std::size_t i = 0; i < count; ++i) results[i] = {};
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (std::size_t j = 0; j < shard_orig[s].size(); ++j) {
        core::LookupResult& out = results[shard_orig[s][j]];
        out.row_id_sum += partial[s][j].row_id_sum;
        out.match_count += partial[s][j].match_count;
      }
    }
  }

  /// Every update (InsertBatch and EraseBatch are one-sided waves)
  /// partitions both sides by shard and hands each shard one wave. A
  /// key inserted and erased in the same wave routes to the same shard,
  /// so the pairwise cancellation semantics survive sharding unchanged.
  void DoUpdateBatch(std::vector<Key> insert_keys,
                     std::vector<std::uint32_t> insert_rows,
                     std::vector<Key> erase_keys,
                     const ExecutionPolicy& policy) override {
    if (!capabilities().updates) {
      throw UnsupportedOperationError(name(), "updates");
    }
    std::vector<std::vector<Key>> shard_ins(shards_.size());
    std::vector<std::vector<std::uint32_t>> shard_rows(shards_.size());
    std::vector<std::vector<Key>> shard_dels(shards_.size());
    for (std::size_t i = 0; i < insert_keys.size(); ++i) {
      const std::size_t s = ShardOf(insert_keys[i]);
      shard_ins[s].push_back(insert_keys[i]);
      shard_rows[s].push_back(insert_rows[i]);
    }
    for (const Key key : erase_keys) {
      shard_dels[ShardOf(key)].push_back(key);
    }
    FanOut(policy, [&](std::size_t s) {
      if (shard_ins[s].empty() && shard_dels[s].empty()) return;
      shards_[s]->UpdateBatch(std::move(shard_ins[s]),
                              std::move(shard_rows[s]),
                              std::move(shard_dels[s]), policy);
    });
  }

 private:
  /// splitmix64 finalizer: full-avalanche 64-bit mix, so consecutive
  /// keys spread uniformly over the shards.
  static std::uint64_t HashMix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Executes body(s) for every shard, scheduler-parallel under a
  /// parallel policy (grain 1: one shard per chunk unless the caller
  /// overrides).
  template <typename Body>
  void FanOut(const ExecutionPolicy& policy, Body&& body) const {
    policy.For(shards_.size(), 1, body);
  }

  /// Quantile boundaries over the bulk-load keys via successive
  /// nth_element (no full sort): upper_bounds_[s] is the (s+1)*n/N-th
  /// smallest key, i.e. the largest key shard s owns. Duplicates of a
  /// boundary value all route to that shard automatically -- ShardOf
  /// assigns by value, not position -- so every key value lives in
  /// exactly one shard. The last shard has no bound and catches
  /// everything above (including keys inserted later).
  void ComputeRangeBounds(const std::vector<Key>& keys) {
    upper_bounds_.clear();
    if (shards_.size() == 1) return;
    std::vector<Key> sample = keys;
    const std::size_t n = sample.size();
    std::size_t prev = 0;
    Key last_bound{};
    for (std::size_t s = 0; s + 1 < shards_.size(); ++s) {
      const std::size_t cut = (s + 1) * n / shards_.size();
      if (cut > 0) {
        // [0, prev) already holds the smallest prev elements, so the
        // next order statistic lies in [prev, n).
        std::nth_element(sample.begin() + prev, sample.begin() + (cut - 1),
                         sample.end());
        last_bound = sample[cut - 1];
        prev = cut - 1;
      }
      upper_bounds_.push_back(last_bound);
    }
  }

  std::string name_;
  std::vector<IndexPtr<Key>> shards_;
  ShardScheme scheme_;
  std::vector<Key> upper_bounds_;  ///< kRange: N-1 shard upper bounds.
};

using ShardedIndex32 = ShardedIndex<std::uint32_t>;
using ShardedIndex64 = ShardedIndex<std::uint64_t>;

}  // namespace cgrx::api

#endif  // CGRX_SRC_API_SHARDED_INDEX_H_
