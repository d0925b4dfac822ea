// Tests for cgRXu, the node-based updatable variant (paper Section IV):
// bulk load semantics, chain lookups, batch insert/delete with node
// splits, insert+delete elimination, the overflow bucket, and
// randomized update storms validated against a std::multimap oracle
// plus structural invariants.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/cgrxu_index.h"
#include "src/util/rng.h"
#include "src/util/task_scheduler.h"
#include "src/util/workloads.h"

namespace cgrx::core {
namespace {

using ::cgrx::util::KeyDistribution;
using ::cgrx::util::MakeDistributedKeySet;
using ::cgrx::util::Rng;

/// Multimap oracle mirroring the index contents.
class UOracle {
 public:
  void Insert(std::uint64_t key, std::uint32_t row) {
    entries_.emplace(key, row);
  }

  bool EraseOne(std::uint64_t key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  LookupResult Range(std::uint64_t lo, std::uint64_t hi) const {
    LookupResult r;
    for (auto it = entries_.lower_bound(lo);
         it != entries_.end() && it->first <= hi; ++it) {
      r.Accumulate(it->second);
    }
    return r;
  }

  LookupResult Point(std::uint64_t key) const { return Range(key, key); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::multimap<std::uint64_t, std::uint32_t> entries_;
};

TEST(CgrxuBuild, NodeCapacityFollowsConfiguredNodeBytes) {
  CgrxuConfig one_cl;
  one_cl.node_bytes = 128;
  CgrxuIndex32 a(one_cl);
  // 128B - (4B maxKey + 4B next + 2B size) = 118B / 8B per entry = 14.
  EXPECT_EQ(a.node_capacity(), 14u);

  CgrxuConfig half_cl;
  half_cl.node_bytes = 64;
  CgrxuIndex32 b(half_cl);
  EXPECT_EQ(b.node_capacity(), 6u);

  CgrxuIndex64 c(one_cl);
  // 128B - (8 + 4 + 2) = 114B / 12B = 9.
  EXPECT_EQ(c.node_capacity(), 9u);
}

TEST(CgrxuBuild, BulkLoadFillsNodesToConfiguredFraction) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 10000,
                                          64, 40);
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  EXPECT_EQ(index.size(), keys.size());
  // Buckets hold floor(capacity * initial_fill) keys each; the key set
  // is duplicate-free, so the bucket count is exact.
  const std::size_t bucket_keys = static_cast<std::size_t>(
      static_cast<double>(index.node_capacity()) * 0.5);
  EXPECT_EQ(index.num_buckets(),
            (keys.size() + bucket_keys - 1) / bucket_keys);
  std::string error;
  EXPECT_TRUE(index.ValidateInvariants(&error)) << error;
}

TEST(CgrxuLookup, FindsEveryBulkLoadedKey) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniformity50,
                                          8000, 64, 41);
  UOracle oracle;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    oracle.Insert(keys[i], static_cast<std::uint32_t>(i));
  }
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  Rng rng(42);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = i % 2 == 0 ? keys[rng.Below(keys.size())] : rng();
    ASSERT_EQ(index.PointLookup(k), oracle.Point(k)) << k;
  }
}

TEST(CgrxuLookup, RangeLookupsMatchOracle) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kClustered16,
                                          6000, 64, 43);
  UOracle oracle;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    oracle.Insert(keys[i], static_cast<std::uint32_t>(i));
  }
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  Rng rng(44);
  for (int i = 0; i < 500; ++i) {
    const std::size_t a = rng.Below(sorted.size());
    const std::size_t b =
        std::min(sorted.size() - 1, a + rng.Below(500));
    ASSERT_EQ(index.RangeLookup(sorted[a], sorted[b]),
              oracle.Range(sorted[a], sorted[b]));
  }
}

TEST(CgrxuUpdates, InsertsBeyondMaxKeyGoToOverflowBucket) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) keys.push_back(i);
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  // Keys far above the bulk-loaded maximum.
  std::vector<std::uint64_t> big = {5000, 6000, 1ULL << 40, ~0ULL};
  std::vector<std::uint32_t> rows = {1, 2, 3, 4};
  index.InsertBatch(big, rows);
  for (std::size_t i = 0; i < big.size(); ++i) {
    const auto r = index.PointLookup(big[i]);
    ASSERT_EQ(r.match_count, 1u) << big[i];
    EXPECT_EQ(r.row_id_sum, rows[i]);
  }
  // Range spanning into the overflow bucket.
  EXPECT_EQ(index.RangeLookup(900, 6000).match_count, 100u + 2u);
  std::string error;
  EXPECT_TRUE(index.ValidateInvariants(&error)) << error;
}

TEST(CgrxuUpdates, SplitsPreserveOrderAndFindability) {
  // Small nodes force frequent splits.
  CgrxuConfig config;
  config.node_bytes = 64;
  CgrxuIndex64 index(config);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 500; ++i) keys.push_back(i * 10);
  index.Build(std::vector<std::uint64_t>(keys));
  // Insert between every existing pair: each bucket overflows multiple
  // times.
  std::vector<std::uint64_t> extra;
  std::vector<std::uint32_t> rows;
  for (std::uint64_t i = 0; i < 500; ++i) {
    for (std::uint64_t d = 1; d <= 4; ++d) {
      extra.push_back(i * 10 + d);
      rows.push_back(static_cast<std::uint32_t>(extra.size()));
    }
  }
  index.InsertBatch(extra, rows);
  EXPECT_EQ(index.size(), 500u + extra.size());
  std::string error;
  ASSERT_TRUE(index.ValidateInvariants(&error)) << error;
  for (std::size_t i = 0; i < extra.size(); i += 13) {
    ASSERT_EQ(index.PointLookup(extra[i]).match_count, 1u) << extra[i];
  }
  EXPECT_GT(index.used_nodes(), index.num_buckets() + 1);
}

TEST(CgrxuUpdates, DeletionsShrinkAndKeepRouting) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 2000; ++i) keys.push_back(i);
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  // Delete every even key.
  std::vector<std::uint64_t> dels;
  for (std::uint64_t i = 0; i < 2000; i += 2) dels.push_back(i);
  index.EraseBatch(dels);
  EXPECT_EQ(index.size(), 1000u);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(index.PointLookup(i).match_count, i % 2 == 1 ? 1u : 0u) << i;
  }
  std::string error;
  EXPECT_TRUE(index.ValidateInvariants(&error)) << error;
}

TEST(CgrxuUpdates, InsertDeleteInSameBatchEliminates) {
  std::vector<std::uint64_t> keys = {10, 20, 30, 40};
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  // 25 is inserted and deleted in the same batch: net no-op. 20 is
  // deleted; 35 inserted.
  index.UpdateBatch({25, 35}, {100, 101}, {25, 20});
  EXPECT_EQ(index.size(), 4u);
  EXPECT_TRUE(index.PointLookup(25).IsMiss());
  EXPECT_TRUE(index.PointLookup(20).IsMiss());
  EXPECT_EQ(index.PointLookup(35).match_count, 1u);
  EXPECT_EQ(index.PointLookup(10).match_count, 1u);
}

TEST(CgrxuUpdates, DeletingAbsentKeysIsANoOp) {
  std::vector<std::uint64_t> keys = {1, 2, 3};
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  index.EraseBatch({0, 4, 100, 2});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.PointLookup(2).IsMiss());
  EXPECT_EQ(index.PointLookup(1).match_count, 1u);
}

TEST(CgrxuUpdates, DuplicateInsertsAccumulate) {
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>{100, 200});
  index.InsertBatch({150, 150, 150}, {1, 2, 3});
  const auto r = index.PointLookup(150);
  EXPECT_EQ(r.match_count, 3u);
  EXPECT_EQ(r.row_id_sum, 6u);
  // Delete removes one instance at a time.
  index.EraseBatch({150});
  EXPECT_EQ(index.PointLookup(150).match_count, 2u);
}

TEST(CgrxuUpdates, EmptyBulkLoadActsAsPureOverflow) {
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>{});
  EXPECT_TRUE(index.PointLookup(1).IsMiss());
  index.InsertBatch({7, 3, 9}, {0, 1, 2});
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.PointLookup(7).match_count, 1u);
  EXPECT_EQ(index.RangeLookup(0, 100).match_count, 3u);
  std::string error;
  EXPECT_TRUE(index.ValidateInvariants(&error)) << error;
}

struct StormCase {
  int key_bits;
  std::uint32_t node_bytes;
  /// Keys per wave. Roles rotate over every 11 keys of the storm: 6
  /// inserts (every third near a live key, the rest anywhere), 4
  /// erases of live keys and 1 erase of a random, mostly absent key --
  /// so a 550-key wave is 300 + 200 + 50, and 1-key waves cycle
  /// through all three.
  int wave_keys;
};

class CgrxuStormTest : public ::testing::TestWithParam<StormCase> {};

TEST_P(CgrxuStormTest, RandomUpdateStormMatchesOracle) {
  const auto [key_bits, node_bytes, wave_keys] = GetParam();
  const std::uint64_t space =
      key_bits == 64 ? ~0ULL : ((1ULL << key_bits) - 1);
  const auto keys64 = MakeDistributedKeySet(KeyDistribution::kUniformity50,
                                            4000, key_bits, 50);
  UOracle oracle;
  for (std::size_t i = 0; i < keys64.size(); ++i) {
    oracle.Insert(keys64[i], static_cast<std::uint32_t>(i));
  }
  CgrxuConfig config;
  config.node_bytes = node_bytes;
  CgrxuIndex64 index(config);
  index.Build(std::vector<std::uint64_t>(keys64));

  Rng rng(51);
  std::vector<std::uint64_t> live(keys64);
  // The storm keeps keys distinct: "delete one instance of a duplicate"
  // is ambiguous between the index and the multimap oracle (they may
  // legitimately pick different rowIDs). Duplicate semantics are
  // covered by the dedicated duplicate tests.
  std::unordered_set<std::uint64_t> used(keys64.begin(), keys64.end());
  std::uint32_t next_row = 4000;
  int role_cursor = 0;
  int inserts = 0;
  // 11 waves: 1-key waves then take every role once.
  for (int wave = 0; wave < 11; ++wave) {
    std::vector<std::uint64_t> ins;
    std::vector<std::uint32_t> ins_rows;
    std::vector<std::uint64_t> del;
    for (int i = 0; i < wave_keys; ++i) {
      const int role = role_cursor++ % 11;
      if (role < 6) {
        std::uint64_t k = inserts++ % 3 == 0
                              ? live[rng.Below(live.size())] + 1
                              : rng.Between(0, space);
        int attempts = 0;
        while (!used.insert(k).second && attempts++ < 16) {
          k = rng.Between(0, space);
        }
        if (attempts > 16) continue;
        ins.push_back(k);
        ins_rows.push_back(next_row++);
      } else if (role < 10) {
        if (live.empty()) continue;
        const std::size_t pos = rng.Below(live.size());
        del.push_back(live[pos]);
        live[pos] = live.back();
        live.pop_back();
      } else {
        del.push_back(rng.Between(0, space));
      }
    }

    // Mirror into the oracle with the same elimination semantics.
    {
      auto ins_copy = ins;
      auto rows_copy = ins_rows;
      auto del_copy = del;
      std::vector<std::size_t> order(ins_copy.size());
      // Sort pairs by key (stable) to mirror the index.
      std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs;
      for (std::size_t i = 0; i < ins_copy.size(); ++i) {
        pairs.emplace_back(ins_copy[i], rows_copy[i]);
      }
      std::stable_sort(pairs.begin(), pairs.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      std::sort(del_copy.begin(), del_copy.end());
      std::vector<std::pair<std::uint64_t, std::uint32_t>> ins_final;
      std::vector<std::uint64_t> del_final;
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < pairs.size() && j < del_copy.size()) {
        if (pairs[i].first < del_copy[j]) {
          ins_final.push_back(pairs[i++]);
        } else if (del_copy[j] < pairs[i].first) {
          del_final.push_back(del_copy[j++]);
        } else {
          ++i;
          ++j;
        }
      }
      for (; i < pairs.size(); ++i) ins_final.push_back(pairs[i]);
      for (; j < del_copy.size(); ++j) del_final.push_back(del_copy[j]);
      for (const auto& [k, r] : ins_final) {
        oracle.Insert(k, r);
        live.push_back(k);
      }
      for (const auto k : del_final) oracle.EraseOne(k);
      (void)order;
    }

    index.UpdateBatch(ins, ins_rows, del);
    ASSERT_EQ(index.size(), oracle.size()) << "wave " << wave;
    std::string error;
    ASSERT_TRUE(index.ValidateInvariants(&error))
        << "wave " << wave << ": " << error;
    // Spot-check lookups.
    for (int q = 0; q < 600; ++q) {
      const std::uint64_t k =
          q % 2 == 0 && !live.empty() ? live[rng.Below(live.size())]
                                      : rng.Between(0, space);
      ASSERT_EQ(index.PointLookup(k), oracle.Point(k))
          << "wave " << wave << " key " << k;
    }
    for (int q = 0; q < 60; ++q) {
      std::uint64_t lo = rng.Between(0, space);
      std::uint64_t hi = rng.Between(0, space);
      if (lo > hi) std::swap(lo, hi);
      // Bound range width to keep the oracle cheap.
      hi = std::min(hi, lo + space / 64);
      ASSERT_EQ(index.RangeLookup(lo, hi), oracle.Range(lo, hi))
          << "wave " << wave;
    }
  }
}

std::vector<StormCase> StormCases() {
  std::vector<StormCase> cases;
  for (const int key_bits : {64, 32}) {
    for (const std::uint32_t node_bytes : {128u, 64u}) {
      for (const int wave_keys : {1, 16, 550}) {
        cases.push_back({key_bits, node_bytes, wave_keys});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Storms, CgrxuStormTest, ::testing::ValuesIn(StormCases()),
    [](const auto& info) {
      std::string name = "u";
      name += std::to_string(info.param.key_bits);
      name += 'n';
      name += std::to_string(info.param.node_bytes);
      name += 'w';
      name += std::to_string(info.param.wave_keys);
      return name;
    });

std::uint64_t BucketsVisited(const CgrxuIndex64& index) {
  return index.stat_counters().update_buckets_swept.load(
      std::memory_order_relaxed);
}

// A wave visits exactly the buckets its keys land in, once each. Bulk
// layout: keys 10, 20, ..., 4000 at 4 keys per bucket, so bucket b holds
// 40b+10 .. 40b+40 and owns (40b, 40b+40]; keys above 4000 land in the
// overflow bucket 100.
TEST(CgrxuUpdates, SparseWavesVisitOnlyTouchedBuckets) {
  constexpr std::uint64_t kBuckets = 100;
  std::vector<std::uint64_t> keys;
  UOracle oracle;
  for (std::uint64_t i = 0; i < 4 * kBuckets; ++i) {
    keys.push_back(10 * (i + 1));
    oracle.Insert(keys.back(), static_cast<std::uint32_t>(i));
  }
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  ASSERT_EQ(index.num_buckets(), kBuckets);
  const auto owner = [&](std::uint64_t key) {
    return key == 0 ? 0 : std::min(kBuckets, (key - 1) / 40);
  };

  struct Wave {
    const char* what;
    std::vector<std::uint64_t> ins;
    std::vector<std::uint64_t> del;
  };
  // Keys stay distinct at every step, and no key is on both sides of a
  // wave, so every key of a wave touches its bucket.
  const std::vector<Wave> waves = {
      {"erase-only, rep keys", {}, {40, 1200, 4000}},
      {"insert-only, rep keys", {40, 1200, 4000}, {}},
      {"below the smallest rep", {0, 1, 5, 39}, {10, 20}},
      {"all in one bucket", {41, 45, 79}, {50, 60, 70, 80}},
      {"overflow only", {4001, 5000, ~0ULL}, {}},
      {"overflow only, mixed", {4500}, {5000, 6000}},
      {"empty", {}, {}},
      {"absent erases", {}, {3999, 12345, 15}},
      {"spread", {2, 401, 1999, 4002, 3001}, {100, 4001, 2000}},
  };
  std::uint32_t next_row = 1000;
  for (const Wave& wave : waves) {
    SCOPED_TRACE(wave.what);
    std::set<std::uint64_t> touched;
    std::vector<std::uint32_t> rows;
    for (const std::uint64_t k : wave.ins) {
      touched.insert(owner(k));
      rows.push_back(next_row);
      oracle.Insert(k, next_row++);
    }
    for (const std::uint64_t k : wave.del) {
      touched.insert(owner(k));
      oracle.EraseOne(k);
    }
    const std::uint64_t before = BucketsVisited(index);
    index.UpdateBatch(wave.ins, rows, wave.del);
    EXPECT_EQ(BucketsVisited(index) - before, touched.size());

    ASSERT_EQ(index.size(), oracle.size());
    std::string error;
    ASSERT_TRUE(index.ValidateInvariants(&error)) << error;
    for (std::uint64_t k = 0; k <= 4100; ++k) {
      ASSERT_EQ(index.PointLookup(k), oracle.Point(k)) << k;
    }
    for (const std::uint64_t k : {5000ULL, 6000ULL, 12345ULL, ~0ULL}) {
      ASSERT_EQ(index.PointLookup(k), oracle.Point(k)) << k;
    }
    for (const auto& [lo, hi] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, 100}, {30, 50}, {3990, 5000}, {4000, ~0ULL}, {0, ~0ULL}}) {
      ASSERT_EQ(index.RangeLookup(lo, hi), oracle.Range(lo, hi))
          << lo << ".." << hi;
    }
  }
}

// The touched buckets of a wave apply as parallel tasks. Replaying one
// wave sequence serially and on a 4-thread scheduler must give the same
// contents; only the ids of split-off nodes may differ.
TEST(CgrxuUpdates, ParallelWavesMatchSerial) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 20000,
                                          64, 70);
  CgrxuIndex64 serial;
  CgrxuIndex64 parallel;
  serial.Build(std::vector<std::uint64_t>(keys));
  parallel.Build(std::vector<std::uint64_t>(keys));
  util::TaskScheduler scheduler(4);
  const auto policy = api::ExecutionPolicy::Parallel(0, &scheduler);

  Rng rng(71);
  std::vector<std::uint64_t> live(keys);
  std::uint32_t next_row = static_cast<std::uint32_t>(keys.size());
  // 8-key waves touch fewer buckets than the task grain and apply
  // inline; 3000-key waves touch far more and fan out.
  for (const int wave_keys : {8, 3000, 8, 3000, 3000}) {
    SCOPED_TRACE(wave_keys);
    std::vector<std::uint64_t> ins;
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> del;
    for (int i = 0; i < wave_keys / 2; ++i) {
      ins.push_back(rng());
      rows.push_back(next_row++);
      const std::size_t pos = rng.Below(live.size());
      del.push_back(live[pos]);
      live[pos] = live.back();
      live.pop_back();
    }
    live.insert(live.end(), ins.begin(), ins.end());

    const std::uint64_t serial_before = BucketsVisited(serial);
    const std::uint64_t parallel_before = BucketsVisited(parallel);
    serial.UpdateBatch(ins, rows, del, api::ExecutionPolicy::Serial());
    parallel.UpdateBatch(ins, rows, del, policy);
    const std::uint64_t visited = BucketsVisited(serial) - serial_before;
    EXPECT_EQ(BucketsVisited(parallel) - parallel_before, visited);
    EXPECT_EQ(visited > CgrxuIndex64::kWaveGrain, wave_keys > 8);

    ASSERT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(parallel.used_nodes(), serial.used_nodes());
    std::string error;
    ASSERT_TRUE(serial.ValidateInvariants(&error)) << error;
    ASSERT_TRUE(parallel.ValidateInvariants(&error)) << error;
    std::vector<std::uint64_t> probes;
    for (int q = 0; q < 4000; ++q) {
      probes.push_back(q % 2 == 0 ? live[rng.Below(live.size())] : rng());
    }
    std::vector<LookupResult> serial_hits(probes.size());
    std::vector<LookupResult> parallel_hits(probes.size());
    serial.PointLookupBatch(probes.data(), probes.size(), serial_hits.data());
    parallel.PointLookupBatch(probes.data(), probes.size(),
                              parallel_hits.data());
    ASSERT_EQ(parallel_hits, serial_hits);
    for (int q = 0; q < 50; ++q) {
      std::uint64_t lo = rng();
      const std::uint64_t hi = lo + std::min(~0ULL - lo, ~0ULL / 256);
      ASSERT_EQ(parallel.RangeLookup(lo, hi), serial.RangeLookup(lo, hi));
    }
  }
}

// Within a wave slice, each key's chain walk resumes where the previous
// key's walk stopped. A serial wave must leave exactly the structure its
// keys leave when applied as one-key waves in slice order (per bucket
// ascending: its erases, then its inserts), where every walk starts at
// the bucket head. Layout as above (bucket b owns (40b, 40b+40],
// overflow above 4000), plus ten more copies each of 2000 and 3000, so
// buckets 49 and 74 bulk-load chains of four nodes whose maxKeys all
// equal the bucket's rep. The second wave walks the chains the first
// one split.
TEST(CgrxuUpdates, ResumedChainWalksMatchOneKeyWaves) {
  constexpr std::uint64_t kBuckets = 100;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 1; i <= 4 * kBuckets; ++i) keys.push_back(10 * i);
  keys.insert(keys.end(), 10, 2000);
  keys.insert(keys.end(), 10, 3000);
  CgrxuIndex64 wave_index;
  CgrxuIndex64 one_key_index;
  wave_index.Build(std::vector<std::uint64_t>(keys));
  one_key_index.Build(std::vector<std::uint64_t>(keys));
  ASSERT_EQ(wave_index.num_buckets(), kBuckets);
  UOracle oracle;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    oracle.Insert(keys[i], static_cast<std::uint32_t>(i));
  }
  const auto owner = [&](std::uint64_t key) {
    return key == 0 ? 0 : std::min(kBuckets, (key - 1) / 40);
  };
  // Nodes are allocated in the same order, so the saved slabs match byte
  // for byte, except for the allocated capacity (bytes 12-15 of
  // cgrxu.nodes), which follows each wave's up-front reservation.
  const auto saved = [](const CgrxuIndex64& index) {
    storage::SnapshotWriter writer;
    index.SaveState(&writer);
    auto sections = writer.TakeSections();
    EXPECT_EQ(sections.front().first, "cgrxu.nodes");
    std::fill_n(sections.front().second.begin() + 12, 4, 0);
    return sections;
  };

  std::uint32_t next_row = 5000;
  // No key may be on both sides of a wave (pairs would cancel).
  const auto apply = [&](std::vector<std::uint64_t> ins,
                         std::vector<std::uint64_t> del) {
    std::sort(ins.begin(), ins.end());
    std::sort(del.begin(), del.end());
    std::vector<std::uint32_t> rows;
    for (const std::uint64_t k : del) oracle.EraseOne(k);
    for (const std::uint64_t k : ins) {
      rows.push_back(next_row++);
      oracle.Insert(k, rows.back());
    }
    wave_index.UpdateBatch(ins, rows, del, api::ExecutionPolicy::Serial());
    std::size_t e = 0;
    std::size_t n = 0;
    for (std::uint64_t b = 0; b <= kBuckets; ++b) {
      for (; e < del.size() && owner(del[e]) == b; ++e) {
        one_key_index.UpdateBatch({}, {}, {del[e]});
      }
      for (; n < ins.size() && owner(ins[n]) == b; ++n) {
        one_key_index.UpdateBatch({ins[n]}, {rows[n]}, {});
      }
    }
    ASSERT_EQ(e, del.size());
    ASSERT_EQ(n, ins.size());

    for (const CgrxuIndex64* index : {&wave_index, &one_key_index}) {
      std::string error;
      ASSERT_TRUE(index->ValidateInvariants(&error)) << error;
      ASSERT_EQ(index->size(), oracle.size());
    }
    EXPECT_EQ(wave_index.used_nodes(), one_key_index.used_nodes());
    EXPECT_EQ(wave_index.RangeLookup(0, ~0ULL),
              one_key_index.RangeLookup(0, ~0ULL));
    EXPECT_EQ(wave_index.RangeLookup(0, ~0ULL), oracle.Range(0, ~0ULL));
    std::vector<std::uint64_t> probes = {~0ULL, ~0ULL - 1, 1ULL << 40};
    for (std::uint64_t k = 0; k <= 4400; ++k) probes.push_back(k);
    for (const std::uint64_t k : probes) {
      const LookupResult got = wave_index.PointLookup(k);
      ASSERT_EQ(got, one_key_index.PointLookup(k)) << k;
      ASSERT_EQ(got, oracle.Point(k)) << k;
    }
    EXPECT_EQ(saved(wave_index), saved(one_key_index));
  };

  {
    SCOPED_TRACE("first wave");
    // Erases: six of the eleven 2000s (the walk continues across the
    // nodes that share that maxKey), present and absent keys, and a
    // bucket's smallest key. Inserts: twelve 3000s at that node boundary
    // (they fill the head node and split it), a run of ascending keys
    // that splits bucket 10's chain repeatedly, keys below the smallest
    // rep, and ascending appends that split the overflow chain.
    std::vector<std::uint64_t> ins = {0, 1, 5, 1995, 2005, 2990, ~0ULL};
    ins.insert(ins.end(), 12, 3000);
    for (std::uint64_t k = 401; k < 440; ++k) ins.push_back(k);
    for (std::uint64_t k = 4001; k <= 4300; ++k) {
      if (k != 4005) ins.push_back(k);
    }
    std::vector<std::uint64_t> del = {10, 30, 15, 1970, 1975, 3990, 4005};
    del.insert(del.end(), 6, 2000);
    apply(ins, del);
    EXPECT_GT(wave_index.used_nodes(), kBuckets + 1 + 3 + 3 + 10);
  }
  {
    SCOPED_TRACE("second wave");
    // Erases above inserts in the split chains of buckets 10, 74 and the
    // overflow bucket; the last five 2000s and one more that is absent
    // (the walk reaches the chain's end). Every other erased key has one
    // instance, so the oracle knows which row goes.
    std::vector<std::uint64_t> ins = {402, 402, 403, 2975, 4002, 4150};
    std::vector<std::uint64_t> del = {438, 439, 440, 2970, 2980, 4290, 4299};
    del.insert(del.end(), 6, 2000);
    apply(ins, del);
  }
}

TEST(CgrxuMemory, FootprintCountsAllocatedNodes) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 5000,
                                          64, 60);
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  const std::size_t before = index.MemoryFootprintBytes();
  // Heavy insertion causes splits and slab growth.
  std::vector<std::uint64_t> ins;
  std::vector<std::uint32_t> rows;
  Rng rng(61);
  for (int i = 0; i < 20000; ++i) {
    ins.push_back(rng());
    rows.push_back(static_cast<std::uint32_t>(i));
  }
  index.InsertBatch(ins, rows);
  EXPECT_GT(index.MemoryFootprintBytes(), before);
  std::string error;
  EXPECT_TRUE(index.ValidateInvariants(&error)) << error;
}

TEST(CgrxuLookup, LookupCostDoesNotExplodeAfterUpdates) {
  // The cgRXu design goal: updates must not degrade the ray path. The
  // ray count per lookup stays bounded by 5 regardless of update load.
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 4000,
                                          64, 62);
  CgrxuIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  Rng rng(63);
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<std::uint64_t> ins;
    std::vector<std::uint32_t> rows;
    for (int i = 0; i < 2000; ++i) {
      ins.push_back(rng());
      rows.push_back(static_cast<std::uint32_t>(i));
    }
    index.InsertBatch(ins, rows);
  }
  for (int i = 0; i < 2000; ++i) {
    int rays = 0;
    index.PointLookup(rng(), &rays);
    ASSERT_LE(rays, 5);
  }
}

}  // namespace
}  // namespace cgrx::core
