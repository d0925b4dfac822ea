#ifndef CGRX_SRC_CORE_TYPES_H_
#define CGRX_SRC_CORE_TYPES_H_

#include <atomic>
#include <cstdint>

namespace cgrx::core {

/// Result of a point or range lookup.
///
/// Following the paper's methodology, "the rowIDs obtained through the
/// lookup are aggregated per-lookup, and then written to a separate
/// result buffer to test for correctness": every index returns the
/// number of matches plus an order-independent aggregate (sum) of the
/// matching rowIDs so results can be compared across indexes without
/// materializing hit lists.
struct LookupResult {
  std::uint64_t row_id_sum = 0;
  std::uint64_t match_count = 0;

  bool IsMiss() const { return match_count == 0; }

  void Accumulate(std::uint32_t row_id) {
    row_id_sum += row_id;
    ++match_count;
  }

  friend bool operator==(const LookupResult&, const LookupResult&) = default;
};

/// Inclusive key range [lo, hi] for range lookups.
template <typename Key>
struct KeyRange {
  Key lo = 0;
  Key hi = 0;
};

/// Per-thread (or per-chunk) counter accumulator. Batch lookups count
/// into one of these locally and merge once per chunk, so the shared
/// atomics below are not contended inside the timed hot loop.
struct LocalLookupCounters {
  std::uint64_t rays_fired = 0;
  std::uint64_t buckets_probed = 0;
  std::uint64_t filter_rejections = 0;
};

/// Cumulative lookup-path counters maintained by the raytracing-backed
/// indexes and surfaced through api::IndexStats. Increments use relaxed
/// atomics: cheap on the hot path, exact in aggregate once a batch has
/// synchronized, but unordered relative to concurrent lookups. Copying
/// an index snapshots the current values.
struct LookupCounters {
  std::atomic<std::uint64_t> rays_fired{0};
  std::atomic<std::uint64_t> buckets_probed{0};
  std::atomic<std::uint64_t> filter_rejections{0};
  /// Buckets visited by update waves (cgRXu: each bucket an UpdateBatch
  /// wave touches, once per wave). A combined insert+delete wave visits
  /// a bucket both sides land in once; decomposing it into InsertBatch
  /// + EraseBatch visits it twice, which is the cost difference
  /// api::Index::UpdateBatch exposes.
  std::atomic<std::uint64_t> update_buckets_swept{0};

  LookupCounters() = default;
  LookupCounters(const LookupCounters& other)
      : rays_fired(other.rays_fired.load(std::memory_order_relaxed)),
        buckets_probed(other.buckets_probed.load(std::memory_order_relaxed)),
        filter_rejections(
            other.filter_rejections.load(std::memory_order_relaxed)),
        update_buckets_swept(
            other.update_buckets_swept.load(std::memory_order_relaxed)) {}
  LookupCounters& operator=(const LookupCounters& other) {
    rays_fired.store(other.rays_fired.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    buckets_probed.store(other.buckets_probed.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    filter_rejections.store(
        other.filter_rejections.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    update_buckets_swept.store(
        other.update_buckets_swept.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  void Merge(const LocalLookupCounters& local) {
    if (local.rays_fired != 0) {
      rays_fired.fetch_add(local.rays_fired, std::memory_order_relaxed);
    }
    if (local.buckets_probed != 0) {
      buckets_probed.fetch_add(local.buckets_probed,
                               std::memory_order_relaxed);
    }
    if (local.filter_rejections != 0) {
      filter_rejections.fetch_add(local.filter_rejections,
                                  std::memory_order_relaxed);
    }
  }
};

}  // namespace cgrx::core

#endif  // CGRX_SRC_CORE_TYPES_H_
