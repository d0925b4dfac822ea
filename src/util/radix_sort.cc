#include "src/util/radix_sort.h"

#include <array>
#include <cassert>
#include <cstring>

#include "src/util/task_scheduler.h"

namespace cgrx::util {
namespace {

constexpr int kRadixBits = 8;
constexpr int kBuckets = 1 << kRadixBits;

/// Arrays below this size sort serially: the parallel pass pays two
/// extra O(chunks * 256) table walks plus scheduler fork/join, which
/// only amortizes on big inputs.
constexpr std::size_t kParallelSortMin = 1 << 15;

// One counting-sort pass over byte `shift/8`. Returns false if the pass
// is a no-op (all keys share the byte), in which case no copy happened.
template <typename K, typename V>
bool CountingPass(const std::vector<K>& keys_in, const std::vector<V>& vals_in,
                  std::vector<K>* keys_out, std::vector<V>* vals_out,
                  int shift) {
  std::array<std::size_t, kBuckets> count{};
  for (K k : keys_in) {
    count[(k >> shift) & (kBuckets - 1)]++;
  }
  if (count[(keys_in.empty() ? 0 : keys_in[0] >> shift) & (kBuckets - 1)] ==
      keys_in.size()) {
    return false;
  }
  std::array<std::size_t, kBuckets> offset{};
  std::size_t sum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    offset[b] = sum;
    sum += count[b];
  }
  for (std::size_t i = 0; i < keys_in.size(); ++i) {
    const std::size_t dst = offset[(keys_in[i] >> shift) & (kBuckets - 1)]++;
    (*keys_out)[dst] = keys_in[i];
    (*vals_out)[dst] = vals_in[i];
  }
  return true;
}

// Parallel counting-sort pass, the host-side shape of CUB's onesweep
// passes: a parallel per-chunk histogram, a bucket-major prefix over
// the chunk x bucket count matrix, then a parallel scatter where every
// chunk writes through its own offset row. Offsets give each (chunk,
// bucket) cell a disjoint destination range ordered bucket-first then
// chunk-first, so the output is stable and byte-identical to the
// serial pass regardless of chunk count or execution order.
template <typename K, typename V>
bool CountingPassParallel(const std::vector<K>& keys_in,
                          const std::vector<V>& vals_in,
                          std::vector<K>* keys_out, std::vector<V>* vals_out,
                          int shift, TaskScheduler& scheduler) {
  const std::size_t n = keys_in.size();
  const std::size_t chunk_count = std::min<std::size_t>(
      static_cast<std::size_t>(scheduler.num_threads()) * 4,
      (n + kParallelSortMin - 1) / kParallelSortMin * 4);
  const std::size_t chunk_size = (n + chunk_count - 1) / chunk_count;
  std::vector<std::array<std::size_t, kBuckets>> counts(chunk_count);
  scheduler.ParallelFor(0, chunk_count, 1, [&](std::size_t cb,
                                               std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      std::array<std::size_t, kBuckets>& count = counts[c];
      count.fill(0);
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      for (std::size_t i = begin; i < end; ++i) {
        count[(keys_in[i] >> shift) & (kBuckets - 1)]++;
      }
    }
  });
  std::size_t first_bucket_total = 0;
  const std::size_t first_bucket = (keys_in[0] >> shift) & (kBuckets - 1);
  for (const auto& count : counts) first_bucket_total += count[first_bucket];
  if (first_bucket_total == n) return false;  // Pass is a no-op.
  // Exclusive offsets, bucket-major over chunks (stability).
  std::vector<std::array<std::size_t, kBuckets>> offsets(chunk_count);
  std::size_t sum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    for (std::size_t c = 0; c < chunk_count; ++c) {
      offsets[c][static_cast<std::size_t>(b)] = sum;
      sum += counts[c][static_cast<std::size_t>(b)];
    }
  }
  scheduler.ParallelFor(0, chunk_count, 1, [&](std::size_t cb,
                                               std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      std::array<std::size_t, kBuckets> offset = offsets[c];
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t dst =
            offset[(keys_in[i] >> shift) & (kBuckets - 1)]++;
        (*keys_out)[dst] = keys_in[i];
        (*vals_out)[dst] = vals_in[i];
      }
    }
  });
  return true;
}

template <typename K, typename V>
void RadixSortImpl(std::vector<K>* keys, std::vector<V>* values, int key_bits,
                   int min_bit, bool allow_parallel) {
  assert(keys->size() == values->size());
  assert(min_bit >= 0 && min_bit <= key_bits);
  const int first_pass = min_bit / kRadixBits;
  const int passes = (key_bits + kRadixBits - 1) / kRadixBits;
  std::vector<K> keys_tmp(keys->size());
  std::vector<V> vals_tmp(values->size());
  auto* ka = keys;
  auto* kb = &keys_tmp;
  auto* va = values;
  auto* vb = &vals_tmp;
  TaskScheduler& scheduler = TaskScheduler::Global();
  const bool parallel = allow_parallel && keys->size() >= kParallelSortMin &&
                        scheduler.num_threads() > 1 &&
                        !TaskScheduler::SerialForced();
  for (int p = first_pass; p < passes; ++p) {
    const bool copied =
        parallel ? CountingPassParallel(*ka, *va, kb, vb, p * kRadixBits,
                                        scheduler)
                 : CountingPass(*ka, *va, kb, vb, p * kRadixBits);
    if (copied) {
      std::swap(ka, kb);
      std::swap(va, vb);
    }
  }
  if (ka != keys) {
    *keys = std::move(*ka);
    *values = std::move(*va);
  }
}

template <typename K>
void RadixSortKeysImpl(std::vector<K>* keys, int key_bits, int min_bit) {
  // Sort with throwaway values to reuse the pair implementation; the
  // value array is byte-sized so the overhead stays negligible.
  std::vector<std::uint8_t> dummy(keys->size());
  RadixSortImpl(keys, &dummy, key_bits, min_bit, /*allow_parallel=*/true);
}

}  // namespace

void RadixSortPairs(std::vector<std::uint64_t>* keys,
                    std::vector<std::uint32_t>* values, int key_bits,
                    int min_bit, bool parallel) {
  RadixSortImpl(keys, values, key_bits, min_bit, parallel);
}

void RadixSortPairs(std::vector<std::uint32_t>* keys,
                    std::vector<std::uint32_t>* values, int key_bits,
                    int min_bit, bool parallel) {
  RadixSortImpl(keys, values, key_bits, min_bit, parallel);
}

void RadixSortKeys(std::vector<std::uint64_t>* keys, int key_bits,
                   int min_bit) {
  RadixSortKeysImpl(keys, key_bits, min_bit);
}

void RadixSortKeys(std::vector<std::uint32_t>* keys, int key_bits,
                   int min_bit) {
  RadixSortKeysImpl(keys, key_bits, min_bit);
}

}  // namespace cgrx::util
