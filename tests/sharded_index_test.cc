// Conformance suite for api::ShardedIndex: a sharded composite must be
// observably identical to its unsharded backend -- point lookups, range
// lookups, and interleaved combined update waves, under both the range
// and hash partitioning schemes, serial, scheduler-parallel, and
// nested-parallel (parallel inner batches inside the parallel shard
// fan-out). Also covers the "sharded:" name prefix, routing
// stability, and merged IndexStats.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/factory.h"
#include "src/api/index.h"
#include "src/api/sharded_index.h"
#include "src/util/rng.h"

namespace cgrx::api {
namespace {

using ::cgrx::core::KeyRange;
using ::cgrx::core::LookupResult;
using ::cgrx::util::Rng;

struct ShardedParam {
  std::string backend;
  ShardScheme scheme;
  std::uint32_t shard_count;
};

std::string ParamName(const ::testing::TestParamInfo<ShardedParam>& info) {
  return info.param.backend + "_" +
         (info.param.scheme == ShardScheme::kRange ? "range" : "hash") + "_" +
         std::to_string(info.param.shard_count);
}

std::vector<ShardedParam> AllParams() {
  std::vector<ShardedParam> params;
  for (const char* backend : {"cgrxu", "cgrx", "sa", "btree", "ht"}) {
    for (const ShardScheme scheme : {ShardScheme::kRange, ShardScheme::kHash}) {
      params.push_back({backend, scheme, 4});
    }
  }
  params.push_back({"cgrxu", ShardScheme::kRange, 1});
  params.push_back({"cgrxu", ShardScheme::kHash, 7});
  return params;
}

std::vector<std::uint64_t> MakeKeys(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 9 == 8 && !keys.empty()) {
      keys.push_back(keys[rng.Below(keys.size())]);  // Duplicate.
    } else {
      keys.push_back(rng.Below(1ULL << 32));
    }
  }
  return keys;
}

class ShardedConformanceTest : public ::testing::TestWithParam<ShardedParam> {
 protected:
  IndexPtr<std::uint64_t> MakeSharded() const {
    IndexOptions options;
    options.shard_count = GetParam().shard_count;
    options.shard_scheme = GetParam().scheme;
    return MakeIndex<std::uint64_t>("sharded:" + GetParam().backend, options);
  }
  IndexPtr<std::uint64_t> MakeReference() const {
    return MakeIndex<std::uint64_t>(GetParam().backend);
  }
};

INSTANTIATE_TEST_SUITE_P(AllShardings, ShardedConformanceTest,
                         ::testing::ValuesIn(AllParams()), ParamName);

// The core acceptance property: sharded == unsharded for lookups and
// interleaved update waves, under serial and parallel policies. Keys
// are distinct (and wave inserts draw from a fresh namespace): which
// instance of a duplicated key an erase removes is unspecified
// per-backend, so only the duplicate-free workload has a well-defined
// cross-composite answer (duplicates are exercised against the oracle
// in api_test).
TEST_P(ShardedConformanceTest, MatchesUnshardedBackend) {
  const auto sharded = MakeSharded();
  const auto reference = MakeReference();
  ASSERT_EQ(sharded->capabilities().point_lookup,
            reference->capabilities().point_lookup);
  ASSERT_EQ(sharded->capabilities().range_lookup,
            reference->capabilities().range_lookup);
  ASSERT_EQ(sharded->capabilities().updates,
            reference->capabilities().updates);

  Rng key_rng(555);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    keys.push_back((i << 20) | key_rng.Below(1 << 20));  // Distinct.
  }
  sharded->Build(std::vector<std::uint64_t>(keys));
  reference->Build(std::vector<std::uint64_t>(keys));
  EXPECT_EQ(sharded->size(), reference->size());

  Rng rng(556);
  const Capabilities caps = sharded->capabilities();
  auto check_agreement = [&](const std::string& phase) {
    for (const ExecutionPolicy& policy :
         {ExecutionPolicy::Serial(), ExecutionPolicy::Parallel()}) {
      if (caps.point_lookup) {
        std::vector<std::uint64_t> probes;
        for (int i = 0; i < 500; ++i) {
          probes.push_back(i % 2 == 0 ? keys[rng.Below(keys.size())]
                                      : rng.Below(1ULL << 32));
        }
        std::vector<LookupResult> sharded_hits;
        std::vector<LookupResult> reference_hits;
        sharded->PointLookupBatch(probes, &sharded_hits, policy);
        reference->PointLookupBatch(probes, &reference_hits, policy);
        EXPECT_EQ(sharded_hits, reference_hits) << phase;
      }
      if (caps.range_lookup) {
        std::vector<KeyRange<std::uint64_t>> ranges;
        for (int i = 0; i < 120; ++i) {
          // Mix of narrow ranges and wide ones spanning several shards.
          const std::uint64_t lo = keys[rng.Below(keys.size())];
          const std::uint64_t width =
              i % 5 == 0 ? (1ULL << 30) : rng.Below(64);
          ranges.push_back({lo, lo + width});
        }
        ranges.push_back({5, 3});  // Empty range stays a miss.
        std::vector<LookupResult> sharded_hits;
        std::vector<LookupResult> reference_hits;
        sharded->RangeLookupBatch(ranges, &sharded_hits, policy);
        reference->RangeLookupBatch(ranges, &reference_hits, policy);
        EXPECT_EQ(sharded_hits, reference_hits) << phase;
      }
    }
  };
  check_agreement("fresh");

  if (caps.updates) {
    std::uint32_t next_row = static_cast<std::uint32_t>(keys.size());
    std::uint64_t next_fresh = 1ULL << 40;  // Above every build key.
    std::vector<std::uint64_t> inserted;
    for (int wave = 0; wave < 3; ++wave) {
      std::vector<std::uint64_t> ins;
      std::vector<std::uint32_t> rows;
      std::vector<std::uint64_t> dels;
      for (int i = 0; i < 200; ++i) {
        ins.push_back(next_fresh++);
        rows.push_back(next_row++);
        inserted.push_back(ins.back());
      }
      for (int i = 0; i < 150; ++i) {
        // Build keys, previously inserted keys, and guaranteed misses.
        dels.push_back(i % 3 == 2 ? rng.Below(1ULL << 32)
                       : i % 3 == 1
                           ? inserted[rng.Below(inserted.size())]
                           : keys[rng.Below(keys.size())]);
      }
      const ExecutionPolicy policy = wave % 2 == 0
                                         ? ExecutionPolicy::Parallel()
                                         : ExecutionPolicy::Serial();
      sharded->UpdateBatch(ins, rows, dels, policy);
      reference->UpdateBatch(ins, rows, dels, policy);
      EXPECT_EQ(sharded->size(), reference->size()) << "wave " << wave;
      check_agreement("after wave " + std::to_string(wave));
      if (caps.point_lookup) {
        // Probe the freshly inserted namespace too.
        std::vector<LookupResult> sharded_hits;
        std::vector<LookupResult> reference_hits;
        sharded->PointLookupBatch(inserted, &sharded_hits);
        reference->PointLookupBatch(inserted, &reference_hits);
        EXPECT_EQ(sharded_hits, reference_hits) << "wave " << wave;
      }
    }
  }
}

// Nested-parallelism conformance: with the work-stealing scheduler the
// shard fan-out passes the caller's parallel policy down to the inner
// batches (shard x inner nesting). Results must be byte-identical to
// serial execution on every backend/scheme -- lookups write disjoint
// slots, so nesting depth is unobservable.
TEST_P(ShardedConformanceTest, NestedParallelInnerMatchesSerial) {
  const auto sharded = MakeSharded();
  const Capabilities caps = sharded->capabilities();
  if (!caps.point_lookup && !caps.range_lookup) return;

  Rng rng(4242);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    keys.push_back((i << 18) | rng.Below(1 << 18));
  }
  sharded->Build(std::vector<std::uint64_t>(keys));

  // Skewed probes (everything lands in the first shard's key range)
  // plus uniform probes: on the skewed half, one shard's inner batch
  // carries most of the work, so its nested parallelism is exercised.
  std::vector<std::uint64_t> probes;
  for (int i = 0; i < 4000; ++i) {
    probes.push_back(i % 2 == 0 ? keys[rng.Below(keys.size() / 4)]
                                : keys[rng.Below(keys.size())]);
  }
  if (caps.point_lookup) {
    std::vector<LookupResult> serial_hits;
    sharded->PointLookupBatch(probes, &serial_hits,
                              ExecutionPolicy::Serial());
    std::vector<LookupResult> nested_hits;
    sharded->PointLookupBatch(probes, &nested_hits,
                              ExecutionPolicy::Parallel());
    EXPECT_EQ(nested_hits, serial_hits);
  }
  if (caps.range_lookup) {
    std::vector<KeyRange<std::uint64_t>> ranges;
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t lo = probes[static_cast<std::size_t>(i)];
      ranges.push_back({lo, lo + rng.Below(1 << 20)});
    }
    std::vector<LookupResult> serial_hits;
    sharded->RangeLookupBatch(ranges, &serial_hits,
                              ExecutionPolicy::Serial());
    std::vector<LookupResult> nested_hits;
    sharded->RangeLookupBatch(ranges, &nested_hits,
                              ExecutionPolicy::Parallel());
    EXPECT_EQ(nested_hits, serial_hits);
  }
}

TEST_P(ShardedConformanceTest, StatsMergeAcrossShards) {
  const auto sharded = MakeSharded();
  const auto keys = MakeKeys(2000, 99);
  sharded->Build(std::vector<std::uint64_t>(keys));
  const IndexStats stats = sharded->Stats();
  EXPECT_EQ(stats.entries, keys.size());
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_EQ(sharded->size(), keys.size());

  auto* composite = dynamic_cast<ShardedIndex<std::uint64_t>*>(sharded.get());
  ASSERT_NE(composite, nullptr);
  EXPECT_EQ(composite->shard_count(), GetParam().shard_count);
  std::size_t shard_total = 0;
  for (const auto& shard : composite->shards()) shard_total += shard->size();
  EXPECT_EQ(shard_total, keys.size());

  if (sharded->capabilities().point_lookup) {
    // A batch's counter delta is the sum of its shards' deltas.
    std::vector<IndexStats> shard_before;
    for (const auto& shard : composite->shards()) {
      shard_before.push_back(shard->Stats());
    }
    const IndexStats before = sharded->Stats();
    std::vector<LookupResult> results;
    sharded->PointLookupBatch(keys, &results);
    const IndexStats delta = sharded->Stats().Delta(before);
    if (GetParam().backend == "cgrxu" || GetParam().backend == "cgrx") {
      EXPECT_GT(delta.rays_fired, 0u);
    }
    std::uint64_t shard_rays = 0;
    std::uint64_t shard_probes = 0;
    for (std::size_t s = 0; s < composite->shard_count(); ++s) {
      const IndexStats shard_delta =
          composite->shards()[s]->Stats().Delta(shard_before[s]);
      shard_rays += shard_delta.rays_fired;
      shard_probes += shard_delta.buckets_probed;
    }
    EXPECT_EQ(delta.rays_fired, shard_rays);
    EXPECT_EQ(delta.buckets_probed, shard_probes);
  }
}

TEST(ShardedIndexTest, RoutingCoversEveryKeyExactlyOnce) {
  for (const ShardScheme scheme : {ShardScheme::kRange, ShardScheme::kHash}) {
    IndexOptions options;
    options.shard_count = 5;
    options.shard_scheme = scheme;
    const auto index = MakeIndex<std::uint64_t>("sharded:btree", options);
    auto* composite = dynamic_cast<ShardedIndex<std::uint64_t>*>(index.get());
    ASSERT_NE(composite, nullptr);
    const auto keys = MakeKeys(4000, 7);
    index->Build(std::vector<std::uint64_t>(keys));
    for (const std::uint64_t key : keys) {
      const std::size_t shard = composite->ShardOf(key);
      ASSERT_LT(shard, composite->shard_count());
      // Routing is a pure function of the key after Build.
      EXPECT_EQ(shard, composite->ShardOf(key));
    }
  }
}

TEST(ShardedIndexTest, RangeSchemeSpreadsBulkLoadOverShards) {
  IndexOptions options;
  options.shard_count = 4;
  options.shard_scheme = ShardScheme::kRange;
  const auto index = MakeIndex<std::uint64_t>("sharded:btree", options);
  auto* composite = dynamic_cast<ShardedIndex<std::uint64_t>*>(index.get());
  ASSERT_NE(composite, nullptr);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 4000; ++i) keys.push_back(i * 17);
  index->Build(std::vector<std::uint64_t>(keys));
  for (const auto& shard : composite->shards()) {
    // Quantile boundaries over distinct keys: every shard holds ~n/4.
    EXPECT_NEAR(static_cast<double>(shard->size()), 1000.0, 1.0);
  }
}

TEST(ShardedIndexTest, EmptyBuildThenInsertsStillRoute) {
  IndexOptions options;
  options.shard_count = 3;
  options.shard_scheme = ShardScheme::kRange;
  const auto index = MakeIndex<std::uint64_t>("sharded:cgrxu", options);
  index->Build(std::vector<std::uint64_t>{});
  EXPECT_EQ(index->size(), 0u);
  index->UpdateBatch({10, 20, 30}, {0, 1, 2}, {});
  EXPECT_EQ(index->size(), 3u);
  std::vector<LookupResult> results;
  index->PointLookupBatch({10, 20, 30, 40}, &results);
  EXPECT_EQ(results[0].match_count, 1u);
  EXPECT_EQ(results[1].match_count, 1u);
  EXPECT_EQ(results[2].match_count, 1u);
  EXPECT_TRUE(results[3].IsMiss());
}

TEST(ShardedIndexTest, FactoryPrefixComposition) {
  IndexOptions options;
  options.shard_count = 3;
  options.shard_scheme = ShardScheme::kHash;
  const auto index = MakeIndex<std::uint32_t>("sharded:cgrxu", options);
  EXPECT_EQ(index->name(), "sharded:cgrxu");
  auto* composite = dynamic_cast<ShardedIndex<std::uint32_t>*>(index.get());
  ASSERT_NE(composite, nullptr);
  EXPECT_EQ(composite->shard_count(), 3u);
  EXPECT_EQ(composite->scheme(), ShardScheme::kHash);
  for (const auto& shard : composite->shards()) {
    EXPECT_EQ(shard->name(), "cgrxu");
  }
  EXPECT_TRUE(index->capabilities().combined_updates);

  // shard_count clamps to at least one shard.
  options.shard_count = 0;
  const auto single = MakeIndex<std::uint32_t>("sharded:sa", options);
  auto* one = dynamic_cast<ShardedIndex<std::uint32_t>*>(single.get());
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->shard_count(), 1u);

  EXPECT_THROW(MakeIndex<std::uint64_t>("sharded:no-such-index"),
               std::invalid_argument);
}

TEST(ShardedIndexTest, UnsupportedOperationsThrowFromCallingThread) {
  IndexOptions options;
  options.shard_count = 2;
  const auto index = MakeIndex<std::uint64_t>("sharded:ht", options);
  index->Build({1, 2, 3});
  std::vector<KeyRange<std::uint64_t>> ranges = {{1, 2}};
  std::vector<LookupResult> results;
  EXPECT_THROW(index->RangeLookupBatch(ranges, &results),
               UnsupportedOperationError);  // HT has no range lookups.

  const auto scans = MakeIndex<std::uint64_t>("sharded:rtscan", options);
  scans->Build({1, 2, 3});
  EXPECT_THROW(scans->UpdateBatch({9}, {9}, {}), UnsupportedOperationError);
}

}  // namespace
}  // namespace cgrx::api
