// Direct unit tests for BucketArray: both physical layouts, bucket
// boundary arithmetic, representative extraction, point search with
// duplicate overhang, range scans, update waves, and footprint
// accounting.
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/bucket_array.h"
#include "src/util/rng.h"

namespace cgrx::core {
namespace {

using ::cgrx::util::Rng;

template <typename Key>
BucketArray<Key> Make(std::vector<Key> keys, std::uint32_t bucket_size,
                      BucketLayout layout) {
  std::vector<std::uint32_t> rows(keys.size());
  std::iota(rows.begin(), rows.end(), 0);
  BucketArray<Key> array;
  array.Build(std::move(keys), std::move(rows), bucket_size, layout);
  return array;
}

class BucketArrayLayoutTest : public ::testing::TestWithParam<BucketLayout> {
};

TEST_P(BucketArrayLayoutTest, AccessorsRoundTrip) {
  const auto array = Make<std::uint64_t>({1, 3, 5, 7, 11, 13, 17}, 3,
                                         GetParam());
  ASSERT_EQ(array.size(), 7u);
  EXPECT_EQ(array.num_buckets(), 3u);
  const std::uint64_t expected[] = {1, 3, 5, 7, 11, 13, 17};
  for (std::size_t i = 0; i < array.size(); ++i) {
    EXPECT_EQ(array.KeyAt(i), expected[i]);
    EXPECT_EQ(array.RowIdAt(i), i);
  }
}

TEST_P(BucketArrayLayoutTest, BucketBoundsAndReps) {
  const auto array = Make<std::uint64_t>({1, 3, 5, 7, 11, 13, 17}, 3,
                                         GetParam());
  EXPECT_EQ(array.BucketBegin(0), 0u);
  EXPECT_EQ(array.BucketEnd(0), 3u);
  EXPECT_EQ(array.BucketEnd(2), 7u);  // Partial last bucket.
  EXPECT_EQ(array.RepKey(0), 5u);
  EXPECT_EQ(array.RepKey(1), 13u);
  EXPECT_EQ(array.RepKey(2), 17u);
  EXPECT_EQ(array.MinRep(), 5u);
  EXPECT_EQ(array.MaxKey(), 17u);
}

TEST_P(BucketArrayLayoutTest, PointSearchFindsWithinBucket) {
  const auto array = Make<std::uint32_t>({2, 4, 6, 8, 10, 12}, 2,
                                         GetParam());
  for (const auto algo :
       {BucketSearchAlgo::kBinary, BucketSearchAlgo::kLinear}) {
    const auto hit = array.PointSearch(1, 8, algo);
    EXPECT_EQ(hit.match_count, 1u);
    EXPECT_EQ(hit.row_id_sum, 3u);
    EXPECT_TRUE(array.PointSearch(1, 7, algo).IsMiss());
  }
}

TEST_P(BucketArrayLayoutTest, PointSearchFollowsDuplicatesAcrossBuckets) {
  // 9 appears five times spanning buckets 1, 2 and 3.
  const auto array =
      Make<std::uint64_t>({1, 2, 9, 9, 9, 9, 9, 20}, 2, GetParam());
  const auto hit = array.PointSearch(1, 9, BucketSearchAlgo::kBinary);
  EXPECT_EQ(hit.match_count, 5u);
  EXPECT_EQ(hit.row_id_sum, 2u + 3u + 4u + 5u + 6u);
}

TEST_P(BucketArrayLayoutTest, RangeScanSkipsBelowAndStopsAbove) {
  const auto array = Make<std::uint32_t>({5, 10, 15, 20, 25, 30}, 4,
                                         GetParam());
  const auto r = array.RangeScan(0, 12, 27);
  EXPECT_EQ(r.match_count, 3u);  // 15, 20, 25.
  EXPECT_EQ(r.row_id_sum, 2u + 3u + 4u);
  EXPECT_TRUE(array.RangeScan(0, 31, 100).IsMiss());
}

TEST_P(BucketArrayLayoutTest, EntriesRoundTrip) {
  Rng rng(1);
  std::vector<std::uint64_t> keys(500);
  for (auto& k : keys) k = rng();
  std::sort(keys.begin(), keys.end());
  const auto array = Make<std::uint64_t>(std::vector<std::uint64_t>(keys),
                                         32, GetParam());
  ASSERT_EQ(array.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(array.KeyAt(i), keys[i]) << i;
    EXPECT_EQ(array.RowIdAt(i), i) << i;
  }
}

TEST_P(BucketArrayLayoutTest, ApplyWaveMergesInOnePass) {
  // Entries (key:row) 1:0 3:1 3:2 5:3 7:4 7:5.
  auto array = Make<std::uint32_t>({1, 3, 3, 5, 7, 7}, 4, GetParam());
  // Erase 3 drops its first entry, 4 is absent, 7 twice drops both;
  // insert 3 lands after the remaining 3 (erases apply first), 0 and 9
  // at the ends.
  array.ApplyWave({0, 3, 9}, {20, 21, 22}, {3, 4, 7, 7});
  const std::uint32_t keys[] = {0, 1, 3, 3, 5, 9};
  const std::uint32_t rows[] = {20, 0, 2, 21, 3, 22};
  ASSERT_EQ(array.size(), 6u);
  EXPECT_EQ(array.num_buckets(), 2u);
  EXPECT_EQ(array.layout(), GetParam());
  for (std::size_t i = 0; i < array.size(); ++i) {
    EXPECT_EQ(array.KeyAt(i), keys[i]) << i;
    EXPECT_EQ(array.RowIdAt(i), rows[i]) << i;
  }
  EXPECT_EQ(array.MemoryFootprintBytes(),
            6 * BucketArray<std::uint32_t>::kEntryBytes);
  // Erasing everything empties the array; an insert-only wave refills it.
  array.ApplyWave({}, {}, {0, 1, 3, 3, 5, 9});
  EXPECT_TRUE(array.empty());
  EXPECT_EQ(array.MemoryFootprintBytes(), 0u);
  array.ApplyWave({8, 8}, {30, 31}, {});
  ASSERT_EQ(array.size(), 2u);
  EXPECT_EQ(array.RowIdAt(0), 30u);
  EXPECT_EQ(array.RowIdAt(1), 31u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, BucketArrayLayoutTest,
                         ::testing::Values(BucketLayout::kRow,
                                           BucketLayout::kColumn),
                         [](const auto& info) {
                           return info.param == BucketLayout::kRow
                                      ? "Row"
                                      : "Column";
                         });

TEST(BucketArrayMemory, RowLayoutPacksEntriesTightly) {
  // Row layout stores key+rowID contiguously: 8 B/entry for 32-bit
  // keys, 12 B/entry for 64-bit keys -- the paper's entry sizes.
  const auto a32 = Make<std::uint32_t>(std::vector<std::uint32_t>(100, 1),
                                       8, BucketLayout::kRow);
  EXPECT_EQ(a32.MemoryFootprintBytes(), 100u * 8u);
  const auto a64 = Make<std::uint64_t>(std::vector<std::uint64_t>(100, 1),
                                       8, BucketLayout::kRow);
  EXPECT_EQ(a64.MemoryFootprintBytes(), 100u * 12u);
}

TEST(BucketArrayMemory, ColumnLayoutMatchesRowLayoutBytes) {
  const auto row = Make<std::uint64_t>(std::vector<std::uint64_t>(64, 1), 8,
                                       BucketLayout::kRow);
  const auto col = Make<std::uint64_t>(std::vector<std::uint64_t>(64, 1), 8,
                                       BucketLayout::kColumn);
  EXPECT_EQ(row.MemoryFootprintBytes(), col.MemoryFootprintBytes());
}

TEST(BucketArrayEdge, EmptyArray) {
  BucketArray<std::uint64_t> array;
  array.Build({}, {}, 4, BucketLayout::kRow);
  EXPECT_TRUE(array.empty());
  EXPECT_EQ(array.num_buckets(), 0u);
}

TEST(BucketArrayEdge, SearchAgainstStdAlgorithmsProperty) {
  Rng rng(7);
  std::vector<std::uint64_t> keys(2000);
  for (auto& k : keys) k = rng.Below(4000);  // Plenty of duplicates.
  std::sort(keys.begin(), keys.end());
  const auto array = Make<std::uint64_t>(std::vector<std::uint64_t>(keys),
                                         16, BucketLayout::kRow);
  for (int probe = 0; probe < 1000; ++probe) {
    const std::uint64_t k = rng.Below(4200);
    // Reference: aggregate over equal_range.
    const auto [lo, hi] = std::equal_range(keys.begin(), keys.end(), k);
    LookupResult expected;
    for (auto it = lo; it != hi; ++it) {
      expected.Accumulate(
          static_cast<std::uint32_t>(it - keys.begin()));
    }
    // The bucket of k is the first whose rep >= k.
    std::size_t bucket = 0;
    while (bucket + 1 < array.num_buckets() && array.RepKey(bucket) < k) {
      ++bucket;
    }
    ASSERT_EQ(array.PointSearch(bucket, k, BucketSearchAlgo::kBinary),
              expected)
        << k;
    ASSERT_EQ(array.PointSearch(bucket, k, BucketSearchAlgo::kLinear),
              expected)
        << k;
  }
}

}  // namespace
}  // namespace cgrx::core
