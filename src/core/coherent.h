#ifndef CGRX_SRC_CORE_COHERENT_H_
#define CGRX_SRC_CORE_COHERENT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <mutex>
#include <type_traits>
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
/// honored throughout: the prologue runs on the calling thread, and the
/// sort is told to stay on it through its `parallel` argument (the
/// debugging/determinism-check contract of ExecutionPolicy::Serial()).
/// The scheduler itself is left alone, so other threads' batches,
/// builds and checkpoints keep running in parallel meanwhile.
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
  util::RadixSortPairs(sorted, perm, occupied, min_bit, !policy.serial());
}

/// Range-batch variant: schedules by each range's lower bound and
/// gathers the ranges themselves into that order.
template <typename Key>
void CoherentOrder(const KeyRange<Key>* ranges, std::size_t count,
                   std::vector<KeyRange<Key>>* sorted,
                   std::vector<std::uint32_t>* perm,
                   const api::ExecutionPolicy& policy = {}) {
  std::vector<Key> lo_keys(count);
  for (std::size_t i = 0; i < count; ++i) lo_keys[i] = ranges[i].lo;
  std::vector<Key> sorted_lo;
  CoherentOrder(lo_keys.data(), count, &sorted_lo, perm, policy);
  sorted->resize(count);
  for (std::size_t i = 0; i < count; ++i) (*sorted)[i] = ranges[(*perm)[i]];
}

/// Lookups in flight per chunk of a pipelined batch (see
/// PipelinedBatch). Each lookup's bucket fetch is covered by the ray
/// traversals of the next kPipelineDepth - 1 lookups. On a 2^20-key
/// cgRX, depths 2 to 16 hide the fetch equally well, and depth 1 (no
/// traversal in between) recovers less than half of the gain (DESIGN.md
/// Section 5).
inline constexpr std::size_t kPipelineDepth = 4;
static_assert(std::has_single_bit(kPipelineDepth));

namespace detail {

/// One chunk of a pipelined batch: items[begin, end) in order, the i-th
/// landing in results[perm[i]] (results[i] when `perm` is null).
/// Lookup i's stage 2 runs right before lookup i + kPipelineDepth's
/// stage 1, and the ring drains at the chunk's end.
template <typename Item, typename Locate, typename Probe>
void RunPipelinedChunk(const Item* items, const std::uint32_t* perm,
                       std::size_t begin, std::size_t end,
                       LookupCounters* counters, LookupResult* results,
                       Locate& locate, Probe& probe) {
  using Token = std::invoke_result_t<Locate&, const Item&,
                                     LocalLookupCounters*,
                                     rt::TraversalContext*>;
  struct InFlight {
    Item item{};
    std::size_t orig = 0;
    Token token{};
  };
  std::array<InFlight, kPipelineDepth> ring;
  rt::TraversalContext ctx;
  LocalLookupCounters local;
  for (std::size_t i = begin; i < end; ++i) {
    InFlight& slot = ring[(i - begin) % kPipelineDepth];
    if (i - begin >= kPipelineDepth) {
      results[slot.orig] = probe(slot.item, slot.token);
    }
    slot.item = items[i];
    slot.orig = perm != nullptr ? perm[i] : i;
    slot.token = locate(slot.item, &local, &ctx);
  }
  for (std::size_t i = end - std::min(end - begin, kPipelineDepth); i < end;
       ++i) {
    const InFlight& slot = ring[(i - begin) % kPipelineDepth];
    results[slot.orig] = probe(slot.item, slot.token);
  }
  counters->Merge(local);
}

}  // namespace detail

/// The batch driver of the three raytracing indexes. Every lookup runs
/// in two stages, kPipelineDepth lookups apart:
///
///  1. `locate(item, &local_counters, &traversal_context) -> Token`
///     fires the rays, counts them, and prefetches what stage 2 reads
///     (cgRX and cgRXu return the located bucket; RX, whose lookup is
///     all rays, returns its finished LookupResult).
///  2. `probe(item, token) -> LookupResult` post-filters the bucket;
///     the driver writes the result to the item's slot in `results`.
///
/// `Item` is a Key (point batches) or a KeyRange<Key> (range batches).
/// A batch of at least kCoherentBatchMin items runs in CoherentOrder; a
/// smaller one runs in caller order. Each chunk of `grain` items has its
/// own TraversalContext, counter accumulator (merged into `counters`
/// once) and in-flight ring (drained at the chunk's end), so chunks
/// share no state and serial, parallel, coherent and caller-order
/// execution give identical results and counters.
template <typename Item, typename Locate, typename Probe>
void PipelinedBatch(const Item* items, std::size_t count, std::size_t grain,
                    const api::ExecutionPolicy& policy,
                    LookupCounters* counters, LookupResult* results,
                    Locate&& locate, Probe&& probe) {
  if (count < kCoherentBatchMin) {
    policy.ForChunks(count, grain, [&](std::size_t begin, std::size_t end) {
      detail::RunPipelinedChunk(items, nullptr, begin, end, counters,
                                results, locate, probe);
    });
    return;
  }
  std::vector<Item> sorted;
  std::vector<std::uint32_t> perm;
  CoherentOrder(items, count, &sorted, &perm, policy);
  policy.ForChunks(count, grain, [&](std::size_t begin, std::size_t end) {
    detail::RunPipelinedChunk(sorted.data(), perm.data(), begin, end,
                              counters, results, locate, probe);
  });
}

}  // namespace cgrx::core

#endif  // CGRX_SRC_CORE_COHERENT_H_
