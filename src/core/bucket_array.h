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

  /// Test helper: collects the rowIDs of all entries in [lo, hi].
  void CollectRange(std::size_t start_bucket, Key lo, Key hi,
                    std::vector<std::uint32_t>* out) const {
    std::size_t i = BucketBegin(start_bucket);
    while (i < size_ && KeyAt(i) < lo) ++i;
    while (i < size_ && KeyAt(i) <= hi) {
      out->push_back(RowIdAt(i));
      ++i;
    }
  }

  /// Bytes of the key-rowID array (the dominant non-scene footprint).
  std::size_t MemoryFootprintBytes() const {
    if (layout_ == BucketLayout::kColumn) {
      return keys_.size() * sizeof(Key) +
             row_ids_.size() * sizeof(std::uint32_t);
    }
    return rows_.size();
  }

  /// Re-extracts the sorted keys (rebuild-style update path).
  std::vector<Key> ExtractKeys() const {
    std::vector<Key> out(size_);
    for (std::size_t i = 0; i < size_; ++i) out[i] = KeyAt(i);
    return out;
  }

  /// Re-extracts the rowIDs, parallel to ExtractKeys().
  std::vector<std::uint32_t> ExtractRowIds() const {
    std::vector<std::uint32_t> out(size_);
    for (std::size_t i = 0; i < size_; ++i) out[i] = RowIdAt(i);
    return out;
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

  std::size_t size_ = 0;
  std::uint32_t bucket_size_ = 1;
  BucketLayout layout_ = BucketLayout::kRow;
  std::vector<std::uint8_t> rows_;        // Row layout storage.
  std::vector<Key> keys_;                 // Column layout storage.
  std::vector<std::uint32_t> row_ids_;    // Column layout storage.
};

}  // namespace cgrx::core

#endif  // CGRX_SRC_CORE_BUCKET_ARRAY_H_
