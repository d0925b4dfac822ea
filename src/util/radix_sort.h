#ifndef CGRX_SRC_UTIL_RADIX_SORT_H_
#define CGRX_SRC_UTIL_RADIX_SORT_H_

#include <cstdint>
#include <vector>

namespace cgrx::util {

/// LSD radix sort of key/rowID pairs, the host-side stand-in for CUB's
/// DeviceRadixSort which the paper uses to sort the input array for all
/// sort-based indexes (cgRX, B+, SA). Stable; sorts by `keys` ascending
/// and applies the same permutation to `values`. Overloads exist for
/// both key widths the paper evaluates, so callers sort in place with no
/// widening copy.
///
/// Large arrays execute each pass parallel on the process-wide
/// TaskScheduler (per-chunk histogram, bucket-major prefix, per-chunk
/// scatter); the parallel passes are stable with chunk-independent
/// output, so the result is byte-identical to the serial sort. Safe to
/// call from inside another parallel region (the scheduler is
/// reentrant).
///
/// `keys` and `values` must have the same length. `key_bits` bounds the
/// number of significant key bits; passes beyond it are skipped (a key
/// set drawn from 32-bit values sorts in half the passes). `min_bit`
/// (rounded down to a byte boundary) skips the low-order passes: the
/// result is ordered by bits [min_bit & ~7, key_bits) only, with equal
/// prefixes keeping their original order -- the approximate ordering the
/// coherence scheduler uses, at a fraction of the passes of a full sort.
/// `parallel` false keeps every pass on the calling thread (a serial
/// ExecutionPolicy's sort) without touching any other thread's work.
void RadixSortPairs(std::vector<std::uint64_t>* keys,
                    std::vector<std::uint32_t>* values, int key_bits = 64,
                    int min_bit = 0, bool parallel = true);
void RadixSortPairs(std::vector<std::uint32_t>* keys,
                    std::vector<std::uint32_t>* values, int key_bits = 32,
                    int min_bit = 0, bool parallel = true);

/// Radix sort of a bare key array (used for update batches).
void RadixSortKeys(std::vector<std::uint64_t>* keys, int key_bits = 64,
                   int min_bit = 0);
void RadixSortKeys(std::vector<std::uint32_t>* keys, int key_bits = 32,
                   int min_bit = 0);

}  // namespace cgrx::util

#endif  // CGRX_SRC_UTIL_RADIX_SORT_H_
