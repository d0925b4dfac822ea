#ifndef CGRX_SRC_CORE_BUCKET_ARRAY_H_
#define CGRX_SRC_CORE_BUCKET_ARRAY_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/core/types.h"
#include "src/util/prefetch.h"
#include "src/util/serial.h"

namespace cgrx::core {

/// Physical layout of the key-rowID array (paper Section III-A, "Bucket
/// Search"): row layout interleaves key and rowID per entry (AoS),
/// column layout keeps two parallel arrays (SoA).
enum class BucketLayout {
  kRow,
  kColumn,
};

/// In-bucket search algorithm (paper Section III-A): the paper finds
/// binary search on row layout best for both tiny and huge buckets and
/// uses that combination; the alternatives exist for the ablation bench.
enum class BucketSearchAlgo {
  kBinary,
  kLinear,
};

/// The sorted key-rowID array of cgRX, logically partitioned into
/// equally-sized buckets. Bucket `b` spans entries
/// [b*bucket_size, min((b+1)*bucket_size, n)); its representative is its
/// last (largest) key.
///
/// `Key` is uint32_t or uint64_t; entries physically store keys at their
/// native width (4 or 8 bytes plus a 4-byte rowID), which is what the
/// paper's memory-footprint comparisons assume.
template <typename Key>
class BucketArray {
 public:
  static constexpr std::size_t kEntryBytes = sizeof(Key) + sizeof(std::uint32_t);

  BucketArray() = default;

  /// Takes ownership of pre-sorted, parallel key/rowID arrays.
  void Build(std::vector<Key> sorted_keys, std::vector<std::uint32_t> row_ids,
             std::uint32_t bucket_size, BucketLayout layout) {
    assert(sorted_keys.size() == row_ids.size());
    assert(bucket_size >= 1);
    size_ = sorted_keys.size();
    bucket_size_ = bucket_size;
    layout_ = layout;
    if (layout_ == BucketLayout::kColumn) {
      keys_ = std::move(sorted_keys);
      row_ids_ = std::move(row_ids);
      rows_.clear();
      rows_.shrink_to_fit();
    } else {
      rows_.resize(size_ * kEntryBytes);
      for (std::size_t i = 0; i < size_; ++i) {
        std::memcpy(&rows_[i * kEntryBytes], &sorted_keys[i], sizeof(Key));
        std::memcpy(&rows_[i * kEntryBytes + sizeof(Key)], &row_ids[i],
                    sizeof(std::uint32_t));
      }
      keys_.clear();
      keys_.shrink_to_fit();
      row_ids_.clear();
      row_ids_.shrink_to_fit();
    }
  }

  /// Applies one update wave in a single merge pass written straight
  /// into a new layout (cgRX's update, the paper's "[rebuild]"): each
  /// erase key drops the first remaining entry of that key (absent keys
  /// are ignored), each insert lands after the existing entries of its
  /// key. Both sides must be sorted ascending, rows following their
  /// keys. The kept entries between two wave keys are found by galloping
  /// and copied as one run, so a k-key wave costs one copy of the array
  /// plus O(k log(n/k)) key comparisons.
  void ApplyWave(const std::vector<Key>& insert_keys,
                 const std::vector<std::uint32_t>& insert_rows,
                 const std::vector<Key>& erase_keys) {
    assert(insert_keys.size() == insert_rows.size());
    const std::size_t capacity = size_ + insert_keys.size();
    std::vector<std::uint8_t> rows;
    std::vector<Key> keys;
    std::vector<std::uint32_t> row_ids;
    if (layout_ == BucketLayout::kColumn) {
      keys.reserve(capacity);
      row_ids.reserve(capacity);
    } else {
      rows.reserve(capacity * kEntryBytes);
    }
    const auto copy_run = [&](std::size_t begin, std::size_t end) {
      if (layout_ == BucketLayout::kColumn) {
        keys.insert(keys.end(), keys_.begin() + begin, keys_.begin() + end);
        row_ids.insert(row_ids.end(), row_ids_.begin() + begin,
                       row_ids_.begin() + end);
      } else {
        rows.insert(rows.end(), rows_.begin() + begin * kEntryBytes,
                    rows_.begin() + end * kEntryBytes);
      }
    };
    std::size_t i = 0;
    std::size_t ins = 0;
    std::size_t del = 0;
    while (ins < insert_keys.size() || del < erase_keys.size()) {
      // Erases apply before inserts of an equal key.
      if (del < erase_keys.size() && (ins == insert_keys.size() ||
                                      erase_keys[del] <= insert_keys[ins])) {
        const Key key = erase_keys[del++];
        const std::size_t at = Gallop(i, [key](Key k) { return k < key; });
        copy_run(i, at);
        i = at < size_ && KeyAt(at) == key ? at + 1 : at;
        continue;
      }
      const Key key = insert_keys[ins];
      const std::uint32_t row = insert_rows[ins++];
      const std::size_t at = Gallop(i, [key](Key k) { return k <= key; });
      copy_run(i, at);
      i = at;
      if (layout_ == BucketLayout::kColumn) {
        keys.push_back(key);
        row_ids.push_back(row);
      } else {
        std::uint8_t entry[kEntryBytes];
        std::memcpy(entry, &key, sizeof(Key));
        std::memcpy(entry + sizeof(Key), &row, sizeof(std::uint32_t));
        rows.insert(rows.end(), entry, entry + kEntryBytes);
      }
    }
    copy_run(i, size_);
    if (layout_ == BucketLayout::kColumn) {
      size_ = keys.size();
      keys_ = std::move(keys);
      row_ids_ = std::move(row_ids);
    } else {
      size_ = rows.size() / kEntryBytes;
      rows_ = std::move(rows);
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint32_t bucket_size() const { return bucket_size_; }
  BucketLayout layout() const { return layout_; }

  std::size_t num_buckets() const {
    return (size_ + bucket_size_ - 1) / bucket_size_;
  }

  Key KeyAt(std::size_t i) const {
    if (layout_ == BucketLayout::kColumn) return keys_[i];
    Key k;
    std::memcpy(&k, &rows_[i * kEntryBytes], sizeof(Key));
    return k;
  }

  std::uint32_t RowIdAt(std::size_t i) const {
    if (layout_ == BucketLayout::kColumn) return row_ids_[i];
    std::uint32_t r;
    std::memcpy(&r, &rows_[i * kEntryBytes + sizeof(Key)],
                sizeof(std::uint32_t));
    return r;
  }

  std::size_t BucketBegin(std::size_t bucket) const {
    return bucket * bucket_size_;
  }

  std::size_t BucketEnd(std::size_t bucket) const {
    const std::size_t end = (bucket + 1) * static_cast<std::size_t>(bucket_size_);
    return end < size_ ? end : size_;
  }

  /// The representative (largest) key of `bucket`.
  Key RepKey(std::size_t bucket) const { return KeyAt(BucketEnd(bucket) - 1); }

  /// Paper notation minRep: the first bucket's representative.
  Key MinRep() const { return RepKey(0); }

  /// The globally largest key (== last representative).
  Key MaxKey() const { return KeyAt(size_ - 1); }

  /// Prefetches every entry of `bucket` (both columns in the column
  /// layout): stage 1 of a pipelined lookup batch issues this as soon as
  /// the rays have located the bucket, so the PointSearch or RangeScan
  /// that runs a few lookups later finds it in cache. Always inlined for
  /// the reason util::PrefetchRange is: out of line, a function that
  /// only prefetches counts as pure and its calls are deleted.
  [[gnu::always_inline]] void PrefetchBucket(std::size_t bucket) const {
    const std::size_t begin = BucketBegin(bucket);
    const std::size_t count = BucketEnd(bucket) - begin;
    if (layout_ == BucketLayout::kColumn) {
      util::PrefetchRange(keys_.data() + begin, count * sizeof(Key));
      util::PrefetchRange(row_ids_.data() + begin,
                          count * sizeof(std::uint32_t));
    } else {
      util::PrefetchRange(rows_.data() + begin * kEntryBytes,
                          count * kEntryBytes);
    }
  }

  /// Searches `bucket` for `key` (paper: "post-filtering a retrieved
  /// bucket"); aggregates every duplicate, following duplicates across
  /// bucket boundaries like the paper's duplicate-handling scan.
  LookupResult PointSearch(std::size_t bucket, Key key,
                           BucketSearchAlgo algo) const {
    const std::size_t begin = BucketBegin(bucket);
    const std::size_t end = BucketEnd(bucket);
    std::size_t pos;
    if (algo == BucketSearchAlgo::kBinary) {
      pos = LowerBound(begin, end, key);
    } else {
      pos = begin;
      while (pos < end && KeyAt(pos) < key) ++pos;
    }
    LookupResult result;
    while (pos < size_ && KeyAt(pos) == key) {
      result.Accumulate(RowIdAt(pos));
      ++pos;
    }
    return result;
  }

  /// Scans forward from the start of `start_bucket`, skipping keys below
  /// `lo` and aggregating keys in [lo, hi]; stops at the first key above
  /// `hi` (the paper's range-lookup scan, Section III-A).
  LookupResult RangeScan(std::size_t start_bucket, Key lo, Key hi) const {
    std::size_t i = BucketBegin(start_bucket);
    while (i < size_ && KeyAt(i) < lo) ++i;
    LookupResult result;
    while (i < size_ && KeyAt(i) <= hi) {
      result.Accumulate(RowIdAt(i));
      ++i;
    }
    return result;
  }

  /// Bytes of the key-rowID array (the dominant non-scene footprint).
  std::size_t MemoryFootprintBytes() const {
    if (layout_ == BucketLayout::kColumn) {
      return keys_.size() * sizeof(Key) +
             row_ids_.size() * sizeof(std::uint32_t);
    }
    return rows_.size();
  }

  /// Snapshot support: persists the physical layout verbatim (the row
  /// layout's interleaved byte array or the column layout's two
  /// columns), so a load is a straight buffer restore with no
  /// re-interleaving.
  void SaveState(util::ByteWriter* out) const {
    out->WriteU64(size_);
    out->WriteU32(bucket_size_);
    out->WriteU8(static_cast<std::uint8_t>(layout_));
    if (layout_ == BucketLayout::kColumn) {
      out->WritePodVector(keys_);
      out->WritePodVector(row_ids_);
    } else {
      out->WritePodVector(rows_);
    }
  }

  void LoadState(util::ByteReader* in) {
    size_ = static_cast<std::size_t>(in->ReadU64());
    bucket_size_ = in->ReadU32();
    layout_ = static_cast<BucketLayout>(in->ReadU8());
    keys_.clear();
    row_ids_.clear();
    rows_.clear();
    if (layout_ == BucketLayout::kColumn) {
      keys_ = in->ReadPodVector<Key>();
      row_ids_ = in->ReadPodVector<std::uint32_t>();
    } else {
      rows_ = in->ReadPodVector<std::uint8_t>();
    }
  }

 private:
  /// First position in [begin, end) whose key is >= `key`. Branchless
  /// binary search: each step shrinks the window with a conditional add
  /// (compiled to a cmov, no mispredicted branch on random keys). The
  /// memory latency of its loads is hidden by PrefetchBucket, which a
  /// batch issues a few lookups before the search runs.
  std::size_t LowerBound(std::size_t begin, std::size_t end, Key key) const {
    std::size_t base = begin;
    std::size_t len = end - begin;
    while (len > 1) {
      const std::size_t half = len / 2;
      base += static_cast<std::size_t>(KeyAt(base + half - 1) < key) * half;
      len -= half;
    }
    if (len == 1 && KeyAt(base) < key) ++base;
    return base;
  }

  /// First position at or after `from` whose key fails `before` (which
  /// holds on a prefix of the array), by doubling steps from `from` then
  /// a binary search: O(log d) for an answer d entries on.
  template <typename Before>
  std::size_t Gallop(std::size_t from, Before before) const {
    std::size_t lo = from;
    std::size_t hi = from;
    for (std::size_t step = 1; hi < size_ && before(KeyAt(hi)); step *= 2) {
      lo = hi + 1;
      hi += step;
    }
    hi = hi < size_ ? hi : size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (before(KeyAt(mid))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::size_t size_ = 0;
  std::uint32_t bucket_size_ = 1;
  BucketLayout layout_ = BucketLayout::kRow;
  std::vector<std::uint8_t> rows_;        // Row layout storage.
  std::vector<Key> keys_;                 // Column layout storage.
  std::vector<std::uint32_t> row_ids_;    // Column layout storage.
};

}  // namespace cgrx::core

#endif  // CGRX_SRC_CORE_BUCKET_ARRAY_H_
