// Randomized property tests for cgRX: for every combination of key
// width, representation, bucket size and key distribution, every point
// lookup, miss and range lookup must agree with a sorted-array oracle.
// Also covers the optimized-representation specifics (flipping,
// auxiliary markers, memory savings) and the rebuild-style updates,
// whose waves must leave the structures a fresh Build would.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/cgrx_index.h"
#include "src/storage/format.h"
#include "src/util/serial.h"
#include "src/util/rng.h"
#include "src/util/workloads.h"

namespace cgrx::core {
namespace {

using ::cgrx::util::KeyDistribution;
using ::cgrx::util::MakeDistributedKeySet;
using ::cgrx::util::Rng;

/// Sorted-array oracle for point and range lookups.
class Oracle {
 public:
  Oracle(const std::vector<std::uint64_t>& keys) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      entries_.emplace_back(keys[i], static_cast<std::uint32_t>(i));
    }
    std::sort(entries_.begin(), entries_.end());
  }

  LookupResult Range(std::uint64_t lo, std::uint64_t hi) const {
    LookupResult result;
    auto it = std::lower_bound(entries_.begin(), entries_.end(),
                               std::make_pair(lo, std::uint32_t{0}));
    for (; it != entries_.end() && it->first <= hi; ++it) {
      result.Accumulate(it->second);
    }
    return result;
  }

  LookupResult Point(std::uint64_t key) const { return Range(key, key); }

 private:
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries_;
};

struct Case {
  int key_bits;
  Representation representation;
  std::uint32_t bucket_size;
  KeyDistribution distribution;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.key_bits == 32 ? "u32" : "u64";
  name += info.param.representation == Representation::kNaive ? "Naive"
                                                              : "Opt";
  name += 'B';
  name += std::to_string(info.param.bucket_size);
  name += '_';
  std::string d = util::ToString(info.param.distribution);
  for (char& c : d) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  name += d;
  return name;
}

class CgrxPropertyTest : public ::testing::TestWithParam<Case> {
 protected:
  template <typename Key>
  void RunAgainstOracle() {
    const Case& c = GetParam();
    constexpr std::size_t kKeys = 6000;
    const auto keys64 =
        MakeDistributedKeySet(c.distribution, kKeys, c.key_bits, 1234);
    std::vector<Key> keys(keys64.begin(), keys64.end());
    const Oracle oracle(keys64);

    CgrxConfig config;
    config.bucket_size = c.bucket_size;
    config.representation = c.representation;
    CgrxIndex<Key> index(config);
    index.Build(keys);
    ASSERT_EQ(index.size(), kKeys);

    // Every key must be found with the exact aggregate.
    for (std::size_t i = 0; i < keys.size(); i += 7) {
      const auto expected = oracle.Point(keys64[i]);
      const auto got = index.PointLookup(keys[i]);
      ASSERT_EQ(got, expected) << "key " << keys64[i];
    }
    // Random probes (hits and misses alike).
    Rng rng(777);
    const std::uint64_t space =
        c.key_bits == 64 ? ~0ULL : ((1ULL << c.key_bits) - 1);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t k = rng.Between(0, space);
      const auto expected = oracle.Point(k);
      const auto got = index.PointLookup(static_cast<Key>(k));
      ASSERT_EQ(got, expected) << "probe " << k;
    }
    // Random ranges, short and long.
    auto sorted = keys64;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 300; ++i) {
      const std::size_t a = rng.Below(sorted.size());
      const std::size_t width = rng.Below(200) + 1;
      const std::uint64_t lo = sorted[a];
      const std::uint64_t hi = sorted[std::min(sorted.size() - 1, a + width)];
      const auto expected = oracle.Range(lo, hi);
      const auto got =
          index.RangeLookup(static_cast<Key>(lo), static_cast<Key>(hi));
      ASSERT_EQ(got, expected) << "range [" << lo << ", " << hi << "]";
    }
    // Ranges with non-key bounds.
    for (int i = 0; i < 300; ++i) {
      std::uint64_t lo = rng.Between(0, space);
      std::uint64_t hi = rng.Between(0, space);
      if (lo > hi) std::swap(lo, hi);
      const auto expected = oracle.Range(lo, hi);
      const auto got =
          index.RangeLookup(static_cast<Key>(lo), static_cast<Key>(hi));
      ASSERT_EQ(got, expected) << "range [" << lo << ", " << hi << "]";
    }
  }
};

TEST_P(CgrxPropertyTest, MatchesOracle) {
  if (GetParam().key_bits == 32) {
    RunAgainstOracle<std::uint32_t>();
  } else {
    RunAgainstOracle<std::uint64_t>();
  }
}

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  const std::vector<KeyDistribution> distributions = {
      KeyDistribution::kDense,          KeyDistribution::kUniform,
      KeyDistribution::kUniformity50,   KeyDistribution::kClustered16,
      KeyDistribution::kZipfGaps10,     KeyDistribution::kDuplicateHeavy,
      KeyDistribution::kMultiPlane,     KeyDistribution::kSequentialBlocks,
  };
  for (const int bits : {32, 64}) {
    for (const Representation rep :
         {Representation::kNaive, Representation::kOptimized}) {
      for (const std::uint32_t bucket : {4u, 32u, 256u}) {
        for (const KeyDistribution d : distributions) {
          cases.push_back({bits, rep, bucket, d});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CgrxPropertyTest,
                         ::testing::ValuesIn(MakeCases()), CaseName);

// ---------------------------------------------------------------------
// Optimized-representation specifics.
// ---------------------------------------------------------------------

TEST(CgrxOptimized, SavesActiveTrianglesOnSparse64BitSets) {
  // Paper Section V-A: for sparse sets the optimized representation has
  // fewer active triangles (markers become implicit) and a smaller
  // footprint.
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 20000,
                                          64, 5);
  CgrxConfig naive_cfg;
  naive_cfg.bucket_size = 4;
  naive_cfg.representation = Representation::kNaive;
  CgrxIndex64 naive(naive_cfg);
  naive.Build(std::vector<std::uint64_t>(keys));

  CgrxConfig opt_cfg = naive_cfg;
  opt_cfg.representation = Representation::kOptimized;
  CgrxIndex64 optimized(opt_cfg);
  optimized.Build(std::vector<std::uint64_t>(keys));

  EXPECT_LT(optimized.ActiveTriangleCount(), naive.ActiveTriangleCount());
  EXPECT_LE(optimized.MemoryFootprintBytes(), naive.MemoryFootprintBytes());
}

TEST(CgrxOptimized, NeverFiresMoreThanFiveRays) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 8000,
                                          64, 6);
  CgrxConfig config;
  config.bucket_size = 8;
  CgrxIndex64 index(config);
  index.Build(std::vector<std::uint64_t>(keys));
  Rng rng(8);
  int max_rays = 0;
  for (int i = 0; i < 5000; ++i) {
    int rays = 0;
    index.PointLookup(rng(), &rays);
    max_rays = std::max(max_rays, rays);
    ASSERT_LE(rays, 5);
  }
  EXPECT_GE(max_rays, 1);
}

TEST(CgrxOptimized, FlippingReducesRaysOnSparseSets) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 8000,
                                          64, 7);
  CgrxConfig with;
  with.bucket_size = 4;
  with.enable_flipping = true;
  CgrxIndex64 flipped(with);
  flipped.Build(std::vector<std::uint64_t>(keys));

  CgrxConfig without = with;
  without.enable_flipping = false;
  CgrxIndex64 unflipped(without);
  unflipped.Build(std::vector<std::uint64_t>(keys));

  Rng rng(9);
  std::int64_t rays_with = 0;
  std::int64_t rays_without = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = keys[rng.Below(keys.size())];
    int r = 0;
    const auto a = flipped.PointLookup(k, &r);
    rays_with += r;
    const auto b = unflipped.PointLookup(k, &r);
    rays_without += r;
    ASSERT_EQ(a, b);  // Flipping is a pure optimization.
  }
  EXPECT_LE(rays_with, rays_without);
}

TEST(CgrxOptimized, NaiveAndOptimizedAgreeEverywhere) {
  for (const KeyDistribution d :
       {KeyDistribution::kUniform, KeyDistribution::kDuplicateHeavy,
        KeyDistribution::kClustered16}) {
    const auto keys = MakeDistributedKeySet(d, 5000, 64, 11);
    CgrxConfig naive_cfg;
    naive_cfg.bucket_size = 16;
    naive_cfg.representation = Representation::kNaive;
    CgrxIndex64 naive(naive_cfg);
    naive.Build(std::vector<std::uint64_t>(keys));
    CgrxConfig opt_cfg = naive_cfg;
    opt_cfg.representation = Representation::kOptimized;
    CgrxIndex64 optimized(opt_cfg);
    optimized.Build(std::vector<std::uint64_t>(keys));
    Rng rng(12);
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t k =
          i % 2 == 0 ? keys[rng.Below(keys.size())] : rng();
      ASSERT_EQ(naive.PointLookup(k), optimized.PointLookup(k))
          << util::ToString(d) << " key " << k;
    }
  }
}

// ---------------------------------------------------------------------
// Bucket search variants.
// ---------------------------------------------------------------------

class BucketSearchVariantTest
    : public ::testing::TestWithParam<std::tuple<BucketLayout,
                                                 BucketSearchAlgo>> {};

TEST_P(BucketSearchVariantTest, AllVariantsAgree) {
  const auto [layout, algo] = GetParam();
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniformity50,
                                          4000, 64, 13);
  const Oracle oracle(keys);
  CgrxConfig config;
  config.bucket_size = 64;
  config.bucket_layout = layout;
  config.bucket_search = algo;
  CgrxIndex64 index(config);
  index.Build(std::vector<std::uint64_t>(keys));
  Rng rng(14);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = i % 2 == 0 ? keys[rng.Below(keys.size())] : rng();
    ASSERT_EQ(index.PointLookup(k), oracle.Point(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, BucketSearchVariantTest,
    ::testing::Combine(::testing::Values(BucketLayout::kRow,
                                         BucketLayout::kColumn),
                       ::testing::Values(BucketSearchAlgo::kBinary,
                                         BucketSearchAlgo::kLinear)),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) == BucketLayout::kRow ? "Row" : "Column";
      name += std::get<1>(info.param) == BucketSearchAlgo::kBinary
                  ? "Binary"
                  : "Linear";
      return name;
    });

// ---------------------------------------------------------------------
// Rebuild-style updates.
// ---------------------------------------------------------------------

TEST(CgrxUpdates, InsertBatchMergesAndStaysCorrect) {
  auto keys = MakeDistributedKeySet(KeyDistribution::kUniformity50, 3000, 64,
                                    20);
  CgrxIndex64 index;
  index.Build(std::vector<std::uint64_t>(keys));
  // Insert 1000 new keys with fresh rowIDs.
  Rng rng(21);
  std::vector<std::uint64_t> extra;
  std::vector<std::uint32_t> extra_rows;
  for (int i = 0; i < 1000; ++i) {
    extra.push_back(rng());
    extra_rows.push_back(static_cast<std::uint32_t>(3000 + i));
  }
  index.InsertBatch(extra, extra_rows);
  EXPECT_EQ(index.size(), 4000u);
  for (std::size_t i = 0; i < extra.size(); i += 17) {
    const auto r = index.PointLookup(extra[i]);
    ASSERT_GE(r.match_count, 1u) << extra[i];
  }
  for (std::size_t i = 0; i < keys.size(); i += 17) {
    ASSERT_GE(index.PointLookup(keys[i]).match_count, 1u);
  }
}

TEST(CgrxUpdates, EraseBatchRemovesOneInstancePerKey) {
  std::vector<std::uint64_t> keys = {5, 5, 5, 9, 12, 12, 40};
  CgrxConfig config;
  config.bucket_size = 2;
  config.mapping_override = util::KeyMapping::Example();
  CgrxIndex64 index(config);
  index.Build(std::vector<std::uint64_t>(keys));
  index.EraseBatch({5, 12, 100});
  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.PointLookup(5).match_count, 2u);
  EXPECT_EQ(index.PointLookup(12).match_count, 1u);
  EXPECT_EQ(index.PointLookup(9).match_count, 1u);
  EXPECT_EQ(index.PointLookup(40).match_count, 1u);
}

TEST(CgrxUpdates, WaveBeforeBuildUsesTheConfiguredShape) {
  CgrxConfig config;
  config.bucket_size = 8;
  config.bucket_layout = BucketLayout::kColumn;
  CgrxIndex64 index(config);
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < 20; ++i) {
    keys.push_back(100 - i);
    rows.push_back(i);
  }
  index.InsertBatch(keys, rows);
  EXPECT_EQ(index.buckets().bucket_size(), 8u);
  EXPECT_EQ(index.buckets().layout(), BucketLayout::kColumn);
  EXPECT_EQ(index.num_buckets(), 3u);
  EXPECT_EQ(index.PointLookup(90).row_id_sum, 10u);
}

// ---------------------------------------------------------------------
// Update waves against a fresh Build: after every wave of a seeded
// sequence, each structure must equal byte for byte the one a Build of
// the surviving entries produces (old survivors in array order, then
// the wave's inserts, which Build's stable sort puts in merge order),
// and lookups must agree with a multimap model.
// ---------------------------------------------------------------------

struct WaveCase {
  int key_bits;
  BucketLayout layout;
  double filter_bits_per_key;
};

std::string WaveCaseName(const ::testing::TestParamInfo<WaveCase>& info) {
  std::string name = info.param.key_bits == 32 ? "u32" : "u64";
  name += info.param.layout == BucketLayout::kRow ? "Row" : "Column";
  name += info.param.filter_bits_per_key > 0 ? "Filter" : "NoFilter";
  return name;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename Key>
void ExpectSameStructures(const CgrxIndex<Key>& got,
                          const CgrxIndex<Key>& want) {
  util::ByteWriter got_buckets;
  util::ByteWriter want_buckets;
  got.buckets().SaveState(&got_buckets);
  want.buckets().SaveState(&want_buckets);
  EXPECT_TRUE(got_buckets.bytes() == want_buckets.bytes()) << "bucket array";
  const rt::Scene& g = got.scene();
  const rt::Scene& w = want.scene();
  EXPECT_TRUE(SameBytes(g.soup().raw_vertices(), w.soup().raw_vertices()))
      << "vertex buffer";
  EXPECT_TRUE(SameBytes(g.bvh().nodes(), w.bvh().nodes()))
      << "binary BVH nodes";
  EXPECT_TRUE(SameBytes(g.bvh4().nodes(), w.bvh4().nodes()))
      << "wide BVH nodes";
  EXPECT_TRUE(SameBytes(g.bvh().prim_indices(), w.bvh().prim_indices()))
      << "primitive indices";
  // The snapshot adds the representative-scene header and the filter.
  storage::SnapshotWriter got_state;
  storage::SnapshotWriter want_state;
  got.SaveState(&got_state);
  want.SaveState(&want_state);
  EXPECT_TRUE(got_state.TakeSections() == want_state.TakeSections())
      << "snapshot sections (miss filter)";
}

template <typename Key>
struct Wave {
  std::vector<Key> insert_keys;
  std::vector<std::uint32_t> insert_rows;
  std::vector<Key> erase_keys;
};

class CgrxWaveOracleTest : public ::testing::TestWithParam<WaveCase> {
 protected:
  template <typename Key>
  void RunWaves() {
    const WaveCase& c = GetParam();
    CgrxConfig config;
    config.bucket_size = 16;
    config.bucket_layout = c.layout;
    config.miss_filter_bits_per_key = c.filter_bits_per_key;
    Rng rng(4242);
    const auto random_key = [&] {
      return static_cast<Key>(c.key_bits == 32 ? rng.Below(1ULL << 32)
                                               : rng());
    };
    // Keys drawn from a small pool recur, so waves hit duplicates.
    std::vector<Key> pool;
    for (int i = 0; i < 1200; ++i) pool.push_back(random_key());
    const auto pooled = [&] { return pool[rng.Below(pool.size())]; };

    std::vector<Key> keys;
    for (int i = 0; i < 3000; ++i) keys.push_back(pooled());
    CgrxIndex<Key> index(config);
    index.Build(std::vector<Key>(keys));
    std::multimap<Key, std::uint32_t> model;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      model.emplace(keys[i], static_cast<std::uint32_t>(i));
    }
    std::uint32_t next_row = static_cast<std::uint32_t>(keys.size());

    const auto add_inserts = [&](Wave<Key>* wave, int count) {
      for (int i = 0; i < count; ++i) {
        wave->insert_keys.push_back(i % 2 == 0 ? pooled() : random_key());
        wave->insert_rows.push_back(next_row++);
      }
    };
    const auto add_erases = [&](Wave<Key>* wave, int count) {
      for (int i = 0; i < count; ++i) {
        wave->erase_keys.push_back(i % 4 == 3 ? random_key() : pooled());
      }
      // Every instance of one present key, plus one absent instance.
      if (!model.empty()) {
        const Key all = std::next(model.begin(),
                                  static_cast<std::ptrdiff_t>(
                                      rng.Below(model.size())))
                            ->first;
        for (std::size_t n = model.count(all) + 1; n > 0; --n) {
          wave->erase_keys.push_back(all);
        }
      }
    };

    const auto make_wave = [&](const std::string& what) {
      Wave<Key> w;
      if (what == "mixed") {
        add_inserts(&w, 200);
        add_erases(&w, 200);
        // Keys on both sides cancel pairwise.
        for (int i = 0; i < 40; ++i) {
          w.erase_keys.push_back(w.insert_keys[rng.Below(200)]);
        }
      } else if (what == "cancels to nothing") {
        add_inserts(&w, 150);
        w.erase_keys.assign(w.insert_keys.rbegin(), w.insert_keys.rend());
      } else if (what == "insert-only") {
        add_inserts(&w, 300);
      } else if (what == "erase-only") {
        add_erases(&w, 300);
      } else if (what == "empties") {
        for (const auto& [key, row] : model) w.erase_keys.push_back(key);
        w.erase_keys.push_back(random_key());
      } else if (what == "refills") {
        add_inserts(&w, 2000);
      } else {
        add_inserts(&w, 250);
        add_erases(&w, 150);
        for (int i = 0; i < 20; ++i) {
          w.insert_keys.push_back(w.erase_keys[rng.Below(150)]);
          w.insert_rows.push_back(next_row++);
        }
      }
      return w;
    };

    for (const std::string what :
         {"mixed", "cancels to nothing", "insert-only", "erase-only",
          "empties", "refills", "mixed again", "mixed again"}) {
      SCOPED_TRACE(what);
      const Wave<Key> wave = make_wave(what);
      // Pairwise cancellation: per key, the first min(#inserts, #erases)
      // inserts in wave order and as many erases drop out.
      std::map<Key, std::size_t> cancel;
      std::map<Key, std::size_t> erase_left;
      {
        std::map<Key, std::size_t> inserts;
        for (const Key k : wave.insert_keys) ++inserts[k];
        for (const Key k : wave.erase_keys) ++erase_left[k];
        for (auto& [k, n] : erase_left) {
          const std::size_t c = std::min(n, inserts[k]);
          cancel[k] = c;
          n -= c;
        }
      }
      // Survivors of the old array, in array order; a surviving erase
      // takes the first remaining entry of its key.
      std::vector<Key> fresh_keys;
      std::vector<std::uint32_t> fresh_rows;
      std::map<Key, std::size_t> to_erase = erase_left;
      for (std::size_t i = 0; i < index.size(); ++i) {
        const Key k = index.buckets().KeyAt(i);
        auto it = to_erase.find(k);
        if (it != to_erase.end() && it->second > 0) {
          --it->second;
          continue;
        }
        fresh_keys.push_back(k);
        fresh_rows.push_back(index.buckets().RowIdAt(i));
      }
      for (auto& [k, n] : erase_left) {
        for (; n > 0; --n) {
          const auto it = model.lower_bound(k);
          if (it != model.end() && it->first == k) model.erase(it);
        }
      }
      for (std::size_t i = 0; i < wave.insert_keys.size(); ++i) {
        const Key k = wave.insert_keys[i];
        auto it = cancel.find(k);
        if (it != cancel.end() && it->second > 0) {
          --it->second;
          continue;
        }
        fresh_keys.push_back(k);
        fresh_rows.push_back(wave.insert_rows[i]);
        model.emplace(k, wave.insert_rows[i]);
      }

      index.UpdateBatch(wave.insert_keys, wave.insert_rows, wave.erase_keys);
      CgrxIndex<Key> fresh(config);
      fresh.Build(std::move(fresh_keys), std::move(fresh_rows));
      ASSERT_EQ(index.size(), model.size());
      ExpectSameStructures(index, fresh);

      // The array holds the model's entries in the model's order.
      std::size_t pos = 0;
      for (const auto& [key, row] : model) {
        ASSERT_EQ(index.buckets().KeyAt(pos), key) << "entry " << pos;
        ASSERT_EQ(index.buckets().RowIdAt(pos), row) << "entry " << pos;
        ++pos;
      }
      const auto expect = [&](Key lo, Key hi) {
        LookupResult result;
        for (auto it = model.lower_bound(lo);
             it != model.end() && it->first <= hi; ++it) {
          result.Accumulate(it->second);
        }
        return result;
      };
      std::vector<Key> probes;
      for (int i = 0; i < 400; ++i) {
        probes.push_back(i % 2 == 0 ? pooled() : random_key());
      }
      std::vector<LookupResult> results(probes.size());
      index.PointLookupBatch(probes.data(), probes.size(), results.data());
      for (std::size_t i = 0; i < probes.size(); ++i) {
        ASSERT_EQ(results[i], expect(probes[i], probes[i]))
            << "point " << probes[i];
      }
      std::vector<KeyRange<Key>> ranges;
      for (int i = 0; i < 100; ++i) {
        Key lo = pooled();
        Key hi = i % 2 == 0 ? pooled() : random_key();
        if (lo > hi) std::swap(lo, hi);
        ranges.push_back({lo, hi});
      }
      results.assign(ranges.size(), LookupResult{});
      index.RangeLookupBatch(ranges.data(), ranges.size(), results.data());
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        ASSERT_EQ(results[i], expect(ranges[i].lo, ranges[i].hi))
            << "range [" << ranges[i].lo << ", " << ranges[i].hi << "]";
      }
    }
    EXPECT_FALSE(model.empty());
  }
};

TEST_P(CgrxWaveOracleTest, WavesMatchFreshBuildAndModel) {
  if (GetParam().key_bits == 32) {
    RunWaves<std::uint32_t>();
  } else {
    RunWaves<std::uint64_t>();
  }
}

std::vector<WaveCase> MakeWaveCases() {
  std::vector<WaveCase> cases;
  for (const int bits : {32, 64}) {
    for (const BucketLayout layout : {BucketLayout::kRow,
                                      BucketLayout::kColumn}) {
      for (const double filter : {0.0, 10.0}) {
        cases.push_back({bits, layout, filter});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CgrxWaveOracleTest,
                         ::testing::ValuesIn(MakeWaveCases()), WaveCaseName);

// ---------------------------------------------------------------------
// Degenerate inputs.
// ---------------------------------------------------------------------

TEST(CgrxEdgeCases, EmptyIndexMissesEverything) {
  CgrxIndex64 index;
  index.Build(std::vector<std::uint64_t>{});
  EXPECT_TRUE(index.PointLookup(42).IsMiss());
  EXPECT_TRUE(index.RangeLookup(0, ~0ULL).IsMiss());
  EXPECT_EQ(index.size(), 0u);
}

TEST(CgrxEdgeCases, SingleKey) {
  for (const Representation rep :
       {Representation::kNaive, Representation::kOptimized}) {
    CgrxConfig config;
    config.representation = rep;
    CgrxIndex64 index(config);
    index.Build(std::vector<std::uint64_t>{123456789});
    EXPECT_EQ(index.PointLookup(123456789).match_count, 1u);
    EXPECT_TRUE(index.PointLookup(123456788).IsMiss());
    EXPECT_TRUE(index.PointLookup(123456790).IsMiss());
    EXPECT_EQ(index.RangeLookup(0, ~0ULL).match_count, 1u);
  }
}

TEST(CgrxEdgeCases, AllKeysIdentical) {
  for (const Representation rep :
       {Representation::kNaive, Representation::kOptimized}) {
    CgrxConfig config;
    config.bucket_size = 4;
    config.representation = rep;
    CgrxIndex64 index(config);
    index.Build(std::vector<std::uint64_t>(100, 777));
    const auto r = index.PointLookup(777);
    EXPECT_EQ(r.match_count, 100u);
    EXPECT_EQ(r.row_id_sum, 99u * 100u / 2u);
    EXPECT_TRUE(index.PointLookup(776).IsMiss());
    EXPECT_TRUE(index.PointLookup(778).IsMiss());
  }
}

TEST(CgrxEdgeCases, BucketSizeOne) {
  // Degenerates to the fine-granular case: every key is a rep.
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 500, 64,
                                          30);
  const Oracle oracle(keys);
  CgrxConfig config;
  config.bucket_size = 1;
  CgrxIndex64 index(config);
  index.Build(std::vector<std::uint64_t>(keys));
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t k = i % 2 == 0 ? keys[rng.Below(keys.size())] : rng();
    ASSERT_EQ(index.PointLookup(k), oracle.Point(k));
  }
}

TEST(CgrxEdgeCases, BucketLargerThanKeySet) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 100, 64,
                                          32);
  const Oracle oracle(keys);
  CgrxConfig config;
  config.bucket_size = 4096;
  CgrxIndex64 index(config);
  index.Build(std::vector<std::uint64_t>(keys));
  EXPECT_EQ(index.num_buckets(), 1u);
  for (const std::uint64_t k : keys) {
    ASSERT_EQ(index.PointLookup(k), oracle.Point(k));
  }
}

TEST(CgrxEdgeCases, ExtremeKeysAtDomainBounds) {
  std::vector<std::uint64_t> keys = {0, 1, ~0ULL - 1, ~0ULL};
  CgrxConfig config;
  config.bucket_size = 2;
  CgrxIndex64 index(config);
  index.Build(std::vector<std::uint64_t>(keys));
  for (const std::uint64_t k : keys) {
    EXPECT_EQ(index.PointLookup(k).match_count, 1u) << k;
  }
  EXPECT_TRUE(index.PointLookup(2).IsMiss());
  EXPECT_TRUE(index.PointLookup(~0ULL - 2).IsMiss());
  EXPECT_EQ(index.RangeLookup(0, ~0ULL).match_count, 4u);
}

TEST(CgrxEdgeCases, UnscaledMappingStaysCorrect) {
  // Figure 9 is about performance, not correctness: the unscaled
  // mapping must return identical results.
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniform, 3000,
                                          64, 33);
  const Oracle oracle(keys);
  CgrxConfig config;
  config.scaled_mapping = false;
  CgrxIndex64 index(config);
  index.Build(std::vector<std::uint64_t>(keys));
  Rng rng(34);
  for (int i = 0; i < 1500; ++i) {
    const std::uint64_t k = i % 2 == 0 ? keys[rng.Below(keys.size())] : rng();
    ASSERT_EQ(index.PointLookup(k), oracle.Point(k));
  }
}

TEST(CgrxEdgeCases, BatchApisMatchScalarApis) {
  const auto keys = MakeDistributedKeySet(KeyDistribution::kUniformity50,
                                          2000, 32, 35);
  std::vector<std::uint32_t> keys32(keys.begin(), keys.end());
  CgrxIndex32 index;
  index.Build(std::vector<std::uint32_t>(keys32));
  std::vector<std::uint32_t> batch;
  Rng rng(36);
  for (int i = 0; i < 1000; ++i) {
    batch.push_back(i % 2 == 0 ? keys32[rng.Below(keys32.size())]
                               : static_cast<std::uint32_t>(rng()));
  }
  std::vector<LookupResult> results(batch.size());
  index.PointLookupBatch(batch.data(), batch.size(), results.data());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(results[i], index.PointLookup(batch[i]));
  }
  // Range batches.
  auto sorted = keys32;
  std::sort(sorted.begin(), sorted.end());
  std::vector<KeyRange<std::uint32_t>> ranges;
  for (int i = 0; i < 200; ++i) {
    const std::size_t a = rng.Below(sorted.size() - 10);
    ranges.push_back({sorted[a], sorted[a + 9]});
  }
  std::vector<LookupResult> range_results(ranges.size());
  index.RangeLookupBatch(ranges.data(), ranges.size(), range_results.data());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    ASSERT_EQ(range_results[i],
              index.RangeLookup(ranges[i].lo, ranges[i].hi));
  }
}

}  // namespace
}  // namespace cgrx::core
