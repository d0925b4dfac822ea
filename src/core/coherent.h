#ifndef CGRX_SRC_CORE_COHERENT_H_
#define CGRX_SRC_CORE_COHERENT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/api/execution_policy.h"
#include "src/core/types.h"
#include "src/rt/scene.h"
#include "src/util/radix_sort.h"
#include "src/util/task_scheduler.h"

namespace cgrx::core {

/// Batches below this size skip coherence scheduling: the reorder pass
/// would cost more than the locality it buys, and tiny batches fit in
/// cache anyway.
inline constexpr std::size_t kCoherentBatchMin = 1024;

/// Schedule-computation batches below this size run their perm-init
/// and max-reduction serially: forking the scheduler for a few
/// kilobytes of linear work costs more than the loops themselves
/// (matches the radix sort's own parallel threshold).
inline constexpr std::size_t kCoherentParallelMin = 1 << 15;

/// Computes a coherence schedule for a lookup batch: `sorted` receives
/// the keys in (approximately) ascending order and `perm[i]` names the
/// original batch position of sorted[i], so results scatter back to
/// their caller-visible slots.
///
/// Consecutive sorted keys map to neighbouring representative triangles,
/// so firing rays in this order keeps reusing the same BVH subtree and
/// bucket cache lines instead of touching a random path per query (the
/// sorted-probe argument GRAB-ANNS makes for bucketed GPU structures).
/// Ordering is approximate: only the top half of the *occupied* key
/// bits are sorted (derived from the batch's maximum, so dense key sets
/// confined to the low key space still get a real schedule) -- enough
/// locality at half the radix passes of a full sort. Keys equal in the
/// sorted bits keep their original order (the underlying sort is
/// stable), making the schedule deterministic.
///
/// Large batches compute the schedule parallel end to end under a
/// parallel policy: the fused perm-init/max-reduction chunks onto the
/// policy's scheduler, and RadixSortPairs runs parallel
/// histogram+scatter passes -- both with results identical to serial
/// execution, so the schedule stays deterministic. A serial policy is
/// honored throughout: the prologue runs on the calling thread and the
/// sort is forced serial too (the debugging/determinism-check
/// contract of ExecutionPolicy::Serial()).
template <typename Key>
void CoherentOrder(const Key* keys, std::size_t count,
                   std::vector<Key>* sorted, std::vector<std::uint32_t>* perm,
                   const api::ExecutionPolicy& policy = {}) {
  sorted->assign(keys, keys + count);
  perm->resize(count);
  constexpr int kBits = static_cast<int>(sizeof(Key)) * 8;
  Key max_key{0};
  const bool serial = policy.serial() || count < kCoherentParallelMin;
  if (serial) {
    for (std::size_t i = 0; i < count; ++i) {
      (*perm)[i] = static_cast<std::uint32_t>(i);
      max_key = std::max(max_key, (*sorted)[i]);
    }
  } else {
    std::mutex merge_mutex;
    policy.scheduler().ParallelFor(
        0, count, [&](std::size_t begin, std::size_t end) {
          Key local{0};
          for (std::size_t i = begin; i < end; ++i) {
            (*perm)[i] = static_cast<std::uint32_t>(i);
            local = std::max(local, (*sorted)[i]);
          }
          const std::lock_guard<std::mutex> lock(merge_mutex);
          max_key = std::max(max_key, local);
        });
  }
  const int occupied = std::max(1, static_cast<int>(std::bit_width(max_key)));
  const int min_bit = std::max(0, occupied - kBits / 2);
  if (policy.serial()) {
    const util::TaskScheduler::SerialScope force_serial;
    util::RadixSortPairs(sorted, perm, occupied, min_bit);
  } else {
    util::RadixSortPairs(sorted, perm, occupied, min_bit);
  }
}

/// Shared batch driver of the three raytracing indexes: executes
/// `body(key, original_position, &local_counters, &traversal_context)`
/// for every batch element, coherence-scheduled exactly when the batch
/// holds at least kCoherentBatchMin keys, with one TraversalContext and
/// one local counter accumulator per chunk (merged into `counters` once
/// per chunk). Results must be written to disjoint slots via
/// `original_position`, which keeps parallel, serial, coherent and
/// batch-order execution byte-identical.
template <typename Key, typename Body>
void CoherentBatch(const Key* keys, std::size_t count, std::size_t grain,
                   const api::ExecutionPolicy& policy,
                   LookupCounters* counters, Body&& body) {
  if (count >= kCoherentBatchMin) {
    std::vector<Key> sorted;
    std::vector<std::uint32_t> perm;
    CoherentOrder(keys, count, &sorted, &perm, policy);
    policy.ForChunks(count, grain, [&](std::size_t begin, std::size_t end) {
      rt::TraversalContext ctx;
      LocalLookupCounters local;
      for (std::size_t i = begin; i < end; ++i) {
        body(sorted[i], static_cast<std::size_t>(perm[i]), &local, &ctx);
      }
      counters->Merge(local);
    });
    return;
  }
  policy.ForChunks(count, grain, [&](std::size_t begin, std::size_t end) {
    rt::TraversalContext ctx;
    LocalLookupCounters local;
    for (std::size_t i = begin; i < end; ++i) {
      body(keys[i], i, &local, &ctx);
    }
    counters->Merge(local);
  });
}

/// Range-batch variant: schedules by each range's lower bound. The
/// lower-bound key copy is only materialized when coherence scheduling
/// actually runs; a smaller batch iterates the ranges directly.
/// `body(original_position, &local_counters, &traversal_context)` reads
/// its range from the caller's array.
template <typename Key, typename Body>
void CoherentRangeBatch(const KeyRange<Key>* ranges, std::size_t count,
                        std::size_t grain, const api::ExecutionPolicy& policy,
                        LookupCounters* counters, Body&& body) {
  if (count >= kCoherentBatchMin) {
    std::vector<Key> lo_keys(count);
    for (std::size_t i = 0; i < count; ++i) lo_keys[i] = ranges[i].lo;
    CoherentBatch(lo_keys.data(), count, grain, policy, counters,
                  [&](Key, std::size_t orig, LocalLookupCounters* local,
                      rt::TraversalContext* ctx) { body(orig, local, ctx); });
    return;
  }
  policy.ForChunks(count, grain, [&](std::size_t begin, std::size_t end) {
    rt::TraversalContext ctx;
    LocalLookupCounters local;
    for (std::size_t i = begin; i < end; ++i) {
      body(i, &local, &ctx);
    }
    counters->Merge(local);
  });
}

}  // namespace cgrx::core

#endif  // CGRX_SRC_CORE_COHERENT_H_
