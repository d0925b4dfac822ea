// Conformance suite for the unified public API (src/api): every
// backend MakeIndex names, at both key widths, must build, look up,
// insert and erase consistently with a multimap oracle -- gated on the
// capabilities it reports -- and parallel batch execution must produce
// byte-identical results to serial execution. Also covers the backend
// table itself, the one update path, the width-erased AnyIndex handle
// and the IndexStats counters.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/adapters.h"
#include "src/api/any_index.h"
#include "src/api/factory.h"
#include "src/api/index.h"
#include "src/core/cgrx_index.h"
#include "src/storage/format.h"
#include "src/util/rng.h"

namespace cgrx::api {
namespace {

using ::cgrx::core::KeyRange;
using ::cgrx::core::LookupResult;
using ::cgrx::util::Rng;

constexpr const char* kAllBackends[] = {"cgrx", "cgrxu",    "rx",
                                        "sa",   "btree",    "ht",
                                        "fullscan", "rtscan"};

/// Shuffled key set with duplicates, bounded to `key_bits`.
std::vector<std::uint64_t> MakeKeys(int key_bits, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t bound =
      key_bits == 32 ? 0xffffffffULL : 0x00ffffffffffffffULL;
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 8 == 7 && !keys.empty()) {
      keys.push_back(keys[rng.Below(keys.size())]);  // Duplicate.
    } else {
      keys.push_back(rng.Below(bound));
    }
  }
  return keys;
}

/// Order-independent aggregate the indexes must reproduce.
LookupResult OracleRange(const std::multimap<std::uint64_t, std::uint32_t>&
                             oracle,
                         std::uint64_t lo, std::uint64_t hi) {
  LookupResult expected;
  for (auto it = oracle.lower_bound(lo);
       it != oracle.end() && it->first <= hi; ++it) {
    expected.Accumulate(it->second);
  }
  return expected;
}

struct ApiTestParam {
  std::string backend;
  int key_bits;
};

std::string ParamName(const ::testing::TestParamInfo<ApiTestParam>& info) {
  return info.param.backend + "_" + std::to_string(info.param.key_bits);
}

std::vector<ApiTestParam> AllParams() {
  std::vector<ApiTestParam> params;
  for (const char* backend : kAllBackends) {
    params.push_back({backend, 32});
    params.push_back({backend, 64});
  }
  return params;
}

class ApiConformanceTest : public ::testing::TestWithParam<ApiTestParam> {
 protected:
  AnyIndex Make() const {
    return MakeAnyIndex(GetParam().backend, GetParam().key_bits);
  }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, ApiConformanceTest,
                         ::testing::ValuesIn(AllParams()), ParamName);

// ---------------------------------------------------------------------
// The backend table (MakeIndex).
// ---------------------------------------------------------------------

TEST(IndexFactoryTest, EveryBackendNameCreatesThatBackendAtBothWidths) {
  EXPECT_TRUE(std::ranges::is_sorted(kBackendNames));
  std::vector<std::string_view> expected(std::begin(kAllBackends),
                                         std::end(kAllBackends));
  std::ranges::sort(expected);
  EXPECT_TRUE(std::ranges::equal(kBackendNames, expected));
  for (const std::string_view backend : kBackendNames) {
    EXPECT_EQ(MakeIndex<std::uint32_t>(backend)->name(), backend);
    EXPECT_EQ(MakeIndex<std::uint64_t>(backend)->name(), backend);
  }
}

TEST(IndexFactoryTest, UnknownBackendThrows) {
  EXPECT_THROW(MakeIndex<std::uint64_t>("no-such-index"),
               std::invalid_argument);
  EXPECT_THROW(MakeIndex<std::uint32_t>("sharded:no-such-index"),
               std::invalid_argument);
}

// One prefix composes shards of a plain backend. Each nested prefix
// would multiply the index count by the shard count, so a short name
// could ask for millions of indexes; MakeIndex refuses it.
TEST(IndexFactoryTest, NestedShardedPrefixIsRejected) {
  IndexOptions options;
  options.shard_count = 3;
  const auto sharded = MakeIndex<std::uint64_t>("sharded:btree", options);
  EXPECT_EQ(sharded->name(), "sharded:btree");
  const auto* composite =
      dynamic_cast<const ShardedIndex<std::uint64_t>*>(sharded.get());
  ASSERT_NE(composite, nullptr);
  EXPECT_EQ(composite->shard_count(), 3u);
  for (const char* name :
       {"sharded:sharded:btree", "sharded:sharded:sharded:cgrx", "sharded:"}) {
    EXPECT_THROW(MakeIndex<std::uint32_t>(name, options),
                 std::invalid_argument)
        << name;
    EXPECT_THROW(MakeIndex<std::uint64_t>(name, options),
                 std::invalid_argument)
        << name;
  }
}

TEST(IndexFactoryTest, UnknownBackendErrorListsRegisteredNames) {
  try {
    MakeIndex<std::uint64_t>("no-such-index");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-index"), std::string::npos) << message;
    for (const char* backend : kAllBackends) {
      EXPECT_NE(message.find(backend), std::string::npos)
          << backend << " missing from: " << message;
    }
    EXPECT_NE(message.find("sharded:"), std::string::npos) << message;
  }
}

TEST(IndexFactoryTest, OptionsReachTheBackend) {
  IndexOptions options;
  options.bucket_size = 256;
  const auto index = MakeIndex<std::uint64_t>("cgrx", options);
  auto* adapter =
      dynamic_cast<IndexAdapter<core::CgrxIndex64>*>(index.get());
  ASSERT_NE(adapter, nullptr);
  EXPECT_EQ(adapter->impl().config().bucket_size, 256u);
}

// ---------------------------------------------------------------------
// Argument validation at the API boundary.
// ---------------------------------------------------------------------

/// Build(keys, row_ids) and InsertBatch with fewer row ids than keys
/// must throw before anything touches the index: without the check, a
/// backend reads (and cgRX's radix sort writes) past the row-id vector.
template <typename Key>
void ExpectRowIdSizeMismatchRejected(const std::string& backend) {
  SCOPED_TRACE(backend + "_" + std::to_string(sizeof(Key) * 8));
  const auto index = MakeIndex<Key>(backend);
  std::vector<Key> keys;
  for (Key k = 0; k < 100; ++k) keys.push_back(3 * k);
  index->Build(std::vector<Key>(keys));
  const Capabilities caps = index->capabilities();
  const auto lookup = [&] {
    std::vector<LookupResult> results;
    if (caps.point_lookup) {
      index->PointLookupBatch(std::vector<Key>{30}, &results);
    } else {
      index->RangeLookupBatch(std::vector<KeyRange<Key>>{{0, 300}}, &results);
    }
    return results.at(0);
  };
  const LookupResult before = lookup();
  ASSERT_FALSE(before.IsMiss());

  std::vector<Key> big;
  for (Key k = 0; k < 2000; ++k) big.push_back(k);
  const std::vector<std::uint32_t> few_rows(10, 7);
  EXPECT_THROW(index->Build(std::vector<Key>(big),
                            std::vector<std::uint32_t>(few_rows)),
               std::invalid_argument);
  EXPECT_THROW(index->InsertBatch(big, few_rows), std::invalid_argument);
  EXPECT_EQ(index->size(), keys.size());
  EXPECT_EQ(lookup(), before);
}

TEST(ArgumentValidationTest, RowIdSizeMismatchThrowsAndLeavesIndexIntact) {
  for (const char* backend : kAllBackends) {
    ExpectRowIdSizeMismatchRejected<std::uint32_t>(backend);
    ExpectRowIdSizeMismatchRejected<std::uint64_t>(backend);
  }
}

// ---------------------------------------------------------------------
// Capability-gated conformance against a multimap oracle.
// ---------------------------------------------------------------------

TEST_P(ApiConformanceTest, BuildLookupUpdateEraseMatchOracle) {
  AnyIndex index = Make();
  const auto keys = MakeKeys(GetParam().key_bits, 1500, 101);
  std::multimap<std::uint64_t, std::uint32_t> oracle;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    oracle.emplace(keys[i], static_cast<std::uint32_t>(i));
  }
  index.Build(keys);
  EXPECT_EQ(index.size(), keys.size());

  const Capabilities caps = index.capabilities();
  Rng rng(202);
  auto check_lookups = [&](const std::string& phase) {
    if (caps.point_lookup) {
      std::vector<std::uint64_t> probes;
      for (int i = 0; i < 300; ++i) {
        probes.push_back(i % 2 == 0 ? keys[rng.Below(keys.size())]
                                    : rng.Below(1ULL << 32));
      }
      std::vector<LookupResult> results;
      index.PointLookupBatch(probes, &results);
      ASSERT_EQ(results.size(), probes.size());
      for (std::size_t i = 0; i < probes.size(); ++i) {
        ASSERT_EQ(results[i], OracleRange(oracle, probes[i], probes[i]))
            << phase << " point lookup of " << probes[i];
      }
    }
    if (caps.range_lookup) {
      std::vector<KeyRange<std::uint64_t>> ranges;
      for (int i = 0; i < 60; ++i) {
        const std::uint64_t lo = keys[rng.Below(keys.size())];
        ranges.push_back({lo, lo + rng.Below(64)});
      }
      std::vector<LookupResult> results;
      index.RangeLookupBatch(ranges, &results);
      ASSERT_EQ(results.size(), ranges.size());
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        ASSERT_EQ(results[i],
                  OracleRange(oracle, ranges[i].lo, ranges[i].hi))
            << phase << " range lookup [" << ranges[i].lo << ", "
            << ranges[i].hi << "]";
      }
    }
  };
  check_lookups("fresh");

  if (caps.updates) {
    // Insert fresh keys with distinct rowIDs.
    std::vector<std::uint64_t> insert_keys;
    std::vector<std::uint32_t> insert_rows;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t k = rng.Below(1ULL << 31);
      const auto row = static_cast<std::uint32_t>(keys.size() + i);
      insert_keys.push_back(k);
      insert_rows.push_back(row);
      oracle.emplace(k, row);
    }
    index.InsertBatch(insert_keys, insert_rows);

    // Erase one instance per key for a mix of present/absent keys.
    std::vector<std::uint64_t> erase_keys;
    for (int i = 0; i < 150; ++i) {
      erase_keys.push_back(i % 3 == 2 ? rng.Below(1ULL << 31)
                                      : keys[rng.Below(keys.size())]);
    }
    for (const std::uint64_t k : erase_keys) {
      const auto it = oracle.find(k);
      if (it != oracle.end()) oracle.erase(it);
    }
    index.EraseBatch(erase_keys);
    EXPECT_EQ(index.size(), oracle.size());
    check_lookups("after updates");
  }
}

TEST_P(ApiConformanceTest, UnsupportedOperationsThrow) {
  AnyIndex index = Make();
  index.Build(MakeKeys(GetParam().key_bits, 64, 7));
  const Capabilities caps = index.capabilities();
  std::vector<std::uint64_t> probes = {1, 2, 3};
  std::vector<KeyRange<std::uint64_t>> ranges = {{1, 5}};
  std::vector<LookupResult> results;
  if (!caps.point_lookup) {
    EXPECT_THROW(index.PointLookupBatch(probes, &results),
                 UnsupportedOperationError);
  }
  if (!caps.range_lookup) {
    EXPECT_THROW(index.RangeLookupBatch(ranges, &results),
                 UnsupportedOperationError);
  }
  if (!caps.updates) {
    EXPECT_THROW(index.InsertBatch(probes, {1, 2, 3}),
                 UnsupportedOperationError);
    EXPECT_THROW(index.EraseBatch(probes), UnsupportedOperationError);
  }
}

// ---------------------------------------------------------------------
// Determinism: parallel batches must be byte-identical to serial ones.
// ---------------------------------------------------------------------

TEST_P(ApiConformanceTest, ParallelExecutionMatchesSerial) {
  AnyIndex index = Make();
  const auto keys = MakeKeys(GetParam().key_bits, 2000, 303);
  index.Build(keys);
  const Capabilities caps = index.capabilities();

  Rng rng(404);
  if (caps.point_lookup) {
    std::vector<std::uint64_t> probes;
    for (int i = 0; i < 1000; ++i) {
      probes.push_back(keys[rng.Below(keys.size())]);
    }
    std::vector<LookupResult> serial;
    std::vector<LookupResult> parallel;
    std::vector<LookupResult> parallel_fine;
    index.PointLookupBatch(probes, &serial, ExecutionPolicy::Serial());
    index.PointLookupBatch(probes, &parallel, ExecutionPolicy::Parallel());
    index.PointLookupBatch(probes, &parallel_fine,
                           ExecutionPolicy::Parallel(/*grain=*/1));
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial, parallel_fine);
  }
  if (caps.range_lookup) {
    std::vector<KeyRange<std::uint64_t>> ranges;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t lo = keys[rng.Below(keys.size())];
      ranges.push_back({lo, lo + rng.Below(32)});
    }
    std::vector<LookupResult> serial;
    std::vector<LookupResult> parallel;
    index.RangeLookupBatch(ranges, &serial, ExecutionPolicy::Serial());
    index.RangeLookupBatch(ranges, &parallel,
                           ExecutionPolicy::Parallel(/*grain=*/3));
    EXPECT_EQ(serial, parallel);
  }
}

// ---------------------------------------------------------------------
// Combined update waves (UpdateBatch).
// ---------------------------------------------------------------------

// One wave with inserts, erases of present and absent keys, and a pair
// that cancels (a key both inserted and erased in the same wave must
// annihilate, leaving any pre-existing instance untouched) -- identical
// semantics whether the backend runs one native sweep (cgRXu) or the
// decomposed two-sweep path.
TEST_P(ApiConformanceTest, UpdateBatchWaveMatchesOracle) {
  AnyIndex index = Make();
  if (!index.capabilities().updates) {
    EXPECT_THROW(index.UpdateBatch({1}, {1}, {2}),
                 UnsupportedOperationError);
    return;
  }
  // Distinct keys so erase instances are unambiguous across backends.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 1200; ++i) keys.push_back(3 * i + 1);
  std::multimap<std::uint64_t, std::uint32_t> oracle;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    oracle.emplace(keys[i], static_cast<std::uint32_t>(i));
  }
  index.Build(keys);

  std::vector<std::uint64_t> ins = {6000002, 6000005, 6000008,
                                    keys[10],  // Second instance of a key.
                                    7000001};
  std::vector<std::uint32_t> rows = {9001, 9002, 9003, 9004, 9005};
  std::vector<std::uint64_t> dels = {
      keys[3],  keys[77],  // Present: erased.
      9999999,             // Absent: ignored.
      7000001,             // Cancels against the insert of 7000001.
  };
  // Oracle semantics: cancel (7000001 insert, 7000001 erase) pairwise,
  // then erase, then insert.
  for (const std::uint64_t k : {keys[3], keys[77]}) {
    oracle.erase(oracle.find(k));
  }
  oracle.emplace(6000002, 9001);
  oracle.emplace(6000005, 9002);
  oracle.emplace(6000008, 9003);
  oracle.emplace(keys[10], 9004);

  index.UpdateBatch(ins, rows, dels);
  EXPECT_EQ(index.size(), oracle.size());

  std::vector<std::uint64_t> probes = {keys[3], keys[77], keys[10],
                                       6000002, 6000005, 6000008,
                                       7000001, 9999999, keys[500]};
  if (index.capabilities().point_lookup) {
    std::vector<LookupResult> results;
    index.PointLookupBatch(probes, &results);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(results[i], OracleRange(oracle, probes[i], probes[i]))
          << "probe " << probes[i];
    }
  }
  if (index.capabilities().range_lookup) {
    std::vector<KeyRange<std::uint64_t>> ranges = {{0, 10000},
                                                   {6000000, 7000100}};
    std::vector<LookupResult> results;
    index.RangeLookupBatch(ranges, &results);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_EQ(results[i], OracleRange(oracle, ranges[i].lo, ranges[i].hi));
    }
  }
}

TEST(CombinedUpdateTest, CgrxAndCgrxuReportCombinedUpdates) {
  // cgRXu sweeps a wave through its nodes; cgRX merges it into the
  // sorted array and rebuilds once. A sharded composite inherits the
  // capability from its shards.
  for (const char* backend : {"cgrx", "cgrxu", "sharded:cgrx"}) {
    EXPECT_TRUE(MakeIndex<std::uint64_t>(backend)
                    ->capabilities()
                    .combined_updates)
        << backend;
  }
  for (const char* backend : {"rx", "sa", "btree", "ht"}) {
    EXPECT_FALSE(MakeIndex<std::uint64_t>(backend)
                     ->capabilities()
                     .combined_updates)
        << backend;
  }
}

// The acceptance assertion of the wave API: a combined insert+delete
// wave on cgRXu visits each bucket it touches once, strictly fewer
// buckets than InsertBatch followed by EraseBatch on the same data
// (observed through the IndexStats update counters).
TEST(CombinedUpdateTest, CgrxuCombinedWaveVisitsEachTouchedBucketOnce) {
  // 64-bit keys at the default node size hold 4 keys per bulk-loaded
  // bucket, so bucket b holds 8b, 8b+2, 8b+4 and 8b+6 and owns the keys
  // in (8b-2, 8b+6].
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 4096; ++i) keys.push_back(2 * i);
  std::vector<std::uint64_t> ins;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint64_t> dels;
  for (std::uint64_t i = 0; i < 512; ++i) {
    ins.push_back(2 * i + 1);  // 1..1023: buckets 0..128.
    rows.push_back(static_cast<std::uint32_t>(keys.size() + i));
    dels.push_back(4 * i);  // Present keys 0..2044: buckets 0..255.
  }
  // The insert buckets lie within the erase buckets, so the wave touches
  // 256 buckets in all.
  constexpr std::uint64_t kInsertBuckets = 129;
  constexpr std::uint64_t kEraseBuckets = 256;

  const auto combined = MakeIndex<std::uint64_t>("cgrxu");
  combined->Build(std::vector<std::uint64_t>(keys));
  const IndexStats before_combined = combined->Stats();
  combined->UpdateBatch(ins, rows, dels);
  const std::uint64_t combined_visits =
      combined->Stats().Delta(before_combined).update_buckets_swept;

  const auto split = MakeIndex<std::uint64_t>("cgrxu");
  split->Build(std::vector<std::uint64_t>(keys));
  const IndexStats before_split = split->Stats();
  split->InsertBatch(ins, rows);
  split->EraseBatch(dels);
  const std::uint64_t split_visits =
      split->Stats().Delta(before_split).update_buckets_swept;

  EXPECT_EQ(combined_visits, kEraseBuckets)
      << "a combined wave visits the union of its touched buckets once";
  EXPECT_EQ(split_visits, kInsertBuckets + kEraseBuckets)
      << "the decomposed path visits the insert and erase buckets apart";
  EXPECT_LT(combined_visits, split_visits);

  // Both routes end in the same index state.
  EXPECT_EQ(combined->size(), split->size());
  std::vector<std::uint64_t> probes;
  for (std::uint64_t i = 0; i < 2048; ++i) probes.push_back(i);
  std::vector<LookupResult> combined_hits;
  std::vector<LookupResult> split_hits;
  combined->PointLookupBatch(probes, &combined_hits);
  split->PointLookupBatch(probes, &split_hits);
  EXPECT_EQ(combined_hits, split_hits);
}

/// A backend's persisted state as (section, bytes) pairs.
template <typename Key>
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> SnapshotOf(
    const Index<Key>& index) {
  storage::SnapshotWriter writer;
  index.SaveState(&writer);
  return writer.TakeSections();
}

/// The answers every supported lookup kind gives for `probes`.
template <typename Key>
std::vector<LookupResult> AnswersOf(const Index<Key>& index,
                                    const std::vector<Key>& probes) {
  std::vector<LookupResult> answers;
  std::vector<LookupResult> results;
  if (index.capabilities().point_lookup) {
    index.PointLookupBatch(probes, &results);
    answers.insert(answers.end(), results.begin(), results.end());
  }
  if (index.capabilities().range_lookup) {
    std::vector<KeyRange<Key>> ranges;
    for (const Key lo : probes) {
      ranges.push_back({lo, static_cast<Key>(lo | 0xfffff)});
    }
    index.RangeLookupBatch(ranges, &results);
    answers.insert(answers.end(), results.begin(), results.end());
  }
  return answers;
}

template <typename Key>
void ExpectInsertAndEraseBatchEqualOneSidedWaves(const std::string& backend) {
  SCOPED_TRACE(backend + "_" + std::to_string(sizeof(Key) * 8));
  // Unsorted keys with duplicates on both sides: a backend that sees
  // the two paths' keys in different orders lays them out differently.
  const std::vector<std::uint64_t> wide = MakeKeys(sizeof(Key) * 8, 3000, 55);
  const std::vector<Key> keys(wide.begin(), wide.end());
  std::vector<Key> ins;
  std::vector<std::uint32_t> rows;
  std::vector<Key> del;
  Rng rng(56);
  for (std::uint32_t i = 0; i < 600; ++i) {
    ins.push_back(i % 4 == 0 ? keys[rng.Below(keys.size())]
                             : static_cast<Key>(rng()));
    rows.push_back(10000 + i);
    del.push_back(i % 3 == 0 ? static_cast<Key>(rng())
                             : keys[rng.Below(keys.size())]);
  }
  const auto batches = MakeIndex<Key>(backend);
  const auto waves = MakeIndex<Key>(backend);
  batches->Build(std::vector<Key>(keys));
  waves->Build(std::vector<Key>(keys));
  const IndexStats batches_before = batches->Stats();
  const IndexStats waves_before = waves->Stats();

  // Serial waves: a parallel cgRXu wave may number its split nodes in
  // any order, which would make equal twins' snapshots differ.
  const ExecutionPolicy serial = ExecutionPolicy::Serial();
  batches->InsertBatch(ins, rows, serial);
  batches->EraseBatch(del, serial);
  waves->UpdateBatch(ins, rows, {}, serial);
  waves->UpdateBatch({}, {}, del, serial);

  EXPECT_EQ(SnapshotOf(*batches), SnapshotOf(*waves));
  const IndexStats batches_delta = batches->Stats().Delta(batches_before);
  const IndexStats waves_delta = waves->Stats().Delta(waves_before);
  EXPECT_EQ(batches_delta.memory_bytes, waves_delta.memory_bytes);
  EXPECT_EQ(batches_delta.entries, waves_delta.entries);
  EXPECT_EQ(batches_delta.update_buckets_swept,
            waves_delta.update_buckets_swept);
  std::vector<Key> probes(keys.begin(), keys.begin() + 500);
  probes.insert(probes.end(), ins.begin(), ins.end());
  EXPECT_EQ(AnswersOf(*batches, probes), AnswersOf(*waves, probes));
}

// InsertBatch and EraseBatch are one-sided UpdateBatch waves: the same
// structure, footprint, counters and answers, on every backend that
// updates and on sharded composites.
TEST(UpdatePathTest, InsertAndEraseBatchEqualOneSidedWaves) {
  for (const char* backend : {"cgrx", "cgrxu", "rx", "sa", "btree", "ht",
                              "sharded:cgrxu", "sharded:rx"}) {
    ExpectInsertAndEraseBatchEqualOneSidedWaves<std::uint32_t>(backend);
    ExpectInsertAndEraseBatchEqualOneSidedWaves<std::uint64_t>(backend);
  }
}

// ---------------------------------------------------------------------
// ExecutionPolicy edge cases: empty batches, grain larger than the
// batch, grain 1 -- parallel must stay byte-identical to serial on
// every backend that supports the operation.
// ---------------------------------------------------------------------

TEST_P(ApiConformanceTest, ExecutionPolicyEdgeCases) {
  AnyIndex index = Make();
  const auto keys = MakeKeys(GetParam().key_bits, 900, 777);
  index.Build(keys);
  const Capabilities caps = index.capabilities();
  const ExecutionPolicy policies[] = {
      ExecutionPolicy::Serial(),
      ExecutionPolicy::Parallel(/*grain=*/1),
      ExecutionPolicy::Parallel(/*grain=*/1 << 20),  // Grain > batch.
  };

  if (caps.point_lookup) {
    // Empty batch: every policy is a no-op that leaves results empty.
    for (const ExecutionPolicy& policy : policies) {
      std::vector<LookupResult> results(3);
      index.PointLookupBatch({}, &results, policy);
      EXPECT_TRUE(results.empty());
    }
    std::vector<std::uint64_t> probes(keys.begin(), keys.begin() + 257);
    std::vector<LookupResult> serial;
    index.PointLookupBatch(probes, &serial, ExecutionPolicy::Serial());
    for (const ExecutionPolicy& policy : policies) {
      std::vector<LookupResult> results;
      index.PointLookupBatch(probes, &results, policy);
      EXPECT_EQ(results, serial);
    }
  }
  if (caps.range_lookup) {
    for (const ExecutionPolicy& policy : policies) {
      std::vector<LookupResult> results(3);
      index.RangeLookupBatch({}, &results, policy);
      EXPECT_TRUE(results.empty());
    }
    std::vector<KeyRange<std::uint64_t>> ranges;
    for (std::size_t i = 0; i < 97; ++i) {
      ranges.push_back({keys[i], keys[i] + 41});
    }
    std::vector<LookupResult> serial;
    index.RangeLookupBatch(ranges, &serial, ExecutionPolicy::Serial());
    for (const ExecutionPolicy& policy : policies) {
      std::vector<LookupResult> results;
      index.RangeLookupBatch(ranges, &results, policy);
      EXPECT_EQ(results, serial);
    }
  }
  if (caps.updates) {
    // Empty waves are no-ops under every policy.
    const std::size_t size_before = index.size();
    for (const ExecutionPolicy& policy : policies) {
      index.InsertBatch({}, {}, policy);
      index.EraseBatch({}, policy);
      index.UpdateBatch({}, {}, {}, policy);
    }
    EXPECT_EQ(index.size(), size_before);
    // A wave under grain 1 and grain > batch must land the same state.
    index.UpdateBatch({123456789}, {42}, {},
                      ExecutionPolicy::Parallel(/*grain=*/1));
    index.UpdateBatch({}, {}, {123456789},
                      ExecutionPolicy::Parallel(/*grain=*/1 << 20));
    EXPECT_EQ(index.size(), size_before);
  }
}

// ---------------------------------------------------------------------
// IndexStats introspection.
// ---------------------------------------------------------------------

TEST_P(ApiConformanceTest, StatsReportFootprintAndEntries) {
  AnyIndex index = Make();
  const auto keys = MakeKeys(GetParam().key_bits, 500, 11);
  index.Build(keys);
  const IndexStats stats = index.Stats();
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_EQ(stats.entries, keys.size());
}

TEST(IndexStatsTest, CgrxCountsRaysAndBucketProbes) {
  const auto index = MakeIndex<std::uint64_t>("cgrx");
  std::vector<std::uint64_t> keys(4096);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 3 * i;
  index->Build(std::vector<std::uint64_t>(keys));
  EXPECT_EQ(index->Stats().rays_fired, 0u);

  std::vector<LookupResult> results;
  index->PointLookupBatch(keys, &results);
  const IndexStats stats = index->Stats();
  // Most lookups fire 1-5 rays; a few resolve ray-free against the
  // optimized representation (paper Section III).
  EXPECT_GT(stats.rays_fired, keys.size() / 2);
  EXPECT_LE(stats.rays_fired, 5 * keys.size());
  EXPECT_EQ(stats.buckets_probed, keys.size());
  EXPECT_EQ(stats.filter_rejections, 0u);
}

TEST(IndexStatsTest, MissFilterRejectionsAreCounted) {
  IndexOptions options;
  options.miss_filter_bits_per_key = 16;
  const auto index = MakeIndex<std::uint64_t>("cgrx", options);
  std::vector<std::uint64_t> keys(2048);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
  index->Build(std::vector<std::uint64_t>(keys));

  std::vector<std::uint64_t> misses(keys.size());
  for (std::size_t i = 0; i < misses.size(); ++i) misses[i] = 2 * i + 1;
  std::vector<LookupResult> results;
  index->PointLookupBatch(misses, &results);
  for (const LookupResult& r : results) EXPECT_TRUE(r.IsMiss());
  // A 16-bits-per-key blocked Bloom filter rejects nearly all misses.
  EXPECT_GT(index->Stats().filter_rejections, misses.size() / 2);
}

TEST(IndexStatsTest, RtScanCountsSegmentRays) {
  const auto index = MakeIndex<std::uint32_t>("rtscan");
  std::vector<std::uint32_t> keys(1024);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::uint32_t>(i);
  }
  index->Build(std::vector<std::uint32_t>(keys));
  std::vector<KeyRange<std::uint32_t>> ranges = {{10, 200}, {300, 310}};
  std::vector<LookupResult> results;
  index->RangeLookupBatch(ranges, &results);
  // One segment ray per kSegmentWidth-wide span: [10,200] needs three,
  // [300,310] one.
  EXPECT_EQ(index->Stats().rays_fired, 4u);
}

TEST(IndexStatsTest, RxCountsRays) {
  const auto index = MakeIndex<std::uint32_t>("rx");
  std::vector<std::uint32_t> keys(1024);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::uint32_t>(i);
  }
  index->Build(std::vector<std::uint32_t>(keys));
  std::vector<std::uint32_t> probes(keys.begin(), keys.begin() + 100);
  std::vector<LookupResult> results;
  index->PointLookupBatch(probes, &results);
  EXPECT_EQ(index->Stats().rays_fired, probes.size());  // One ray each.
}

// ---------------------------------------------------------------------
// Width-erased handle.
// ---------------------------------------------------------------------

TEST(AnyIndexTest, NarrowsKeysFor32BitBackends) {
  AnyIndex index = MakeAnyIndex("sa", 32);
  EXPECT_EQ(index.key_bits(), 32);
  EXPECT_EQ(index.name(), "sa");
  index.Build({5, 1, 3});
  std::vector<LookupResult> results;
  index.PointLookupBatch({1, 2}, &results);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].match_count, 1u);
  EXPECT_TRUE(results[1].IsMiss());
  EXPECT_NE(index.as32(), nullptr);
  EXPECT_EQ(index.as64(), nullptr);
}

}  // namespace
}  // namespace cgrx::api
