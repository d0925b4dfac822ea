// Persistence engine suite (src/storage): snapshot round-trip
// conformance for every factory backend at both key widths (sharded
// composites included), byte-identity of the reloaded wide-BVH node
// arrays for the raytracing backends, WAL append/replay semantics
// (group commit, exactly-once replay by epoch, torn-tail truncation,
// version and width rejection), the IndexStore checkpoint/recovery
// protocol, the DurableIndexService crash-recovery path through the
// dispatcher, and a real kill-mid-WAL-append recovery test.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "src/api/adapters.h"
#include "src/api/factory.h"
#include "src/api/index.h"
#include "src/api/service.h"
#include "src/core/cgrx_index.h"
#include "src/core/cgrxu_index.h"
#include "src/storage/durable_service.h"
#include "src/storage/snapshot.h"
#include "src/storage/store.h"
#include "src/storage/wal.h"
#include "src/util/fault_injector.h"
#include "src/util/rng.h"

namespace cgrx::storage {
namespace {

using ::cgrx::api::IndexOptions;
using ::cgrx::api::IndexPtr;
using ::cgrx::api::MakeIndex;
using ::cgrx::core::KeyRange;
using ::cgrx::core::LookupResult;
using ::cgrx::util::Rng;

constexpr const char* kAllBackends[] = {"cgrx", "cgrxu",    "rx",
                                        "sa",   "btree",    "ht",
                                        "fullscan", "rtscan"};

/// Fresh per-test scratch directory under the gtest temp root.
std::filesystem::path ScratchDir(const std::string& tag) {
  static int counter = 0;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("cgrx_storage_" + tag + "_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

template <typename Key>
std::vector<Key> MakeKeys(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t bound =
      sizeof(Key) == 4 ? 0xffffffffULL : 0x00ffffffffffffffULL;
  std::vector<Key> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 8 == 7 && !keys.empty()) {
      keys.push_back(keys[rng.Below(keys.size())]);  // Duplicate.
    } else {
      keys.push_back(static_cast<Key>(rng.Below(bound)));
    }
  }
  return keys;
}

/// Asserts `restored` answers every probe identically to `original`
/// (point lookups over hits and misses, ranges when supported).
template <typename Key>
void ExpectSameAnswers(api::Index<Key>& original, api::Index<Key>& restored,
                       const std::vector<Key>& probes) {
  ASSERT_EQ(original.size(), restored.size());
  const api::Capabilities caps = original.capabilities();
  if (caps.point_lookup) {
    std::vector<LookupResult> expected;
    std::vector<LookupResult> actual;
    original.PointLookupBatch(probes, &expected);
    restored.PointLookupBatch(probes, &actual);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(expected[i], actual[i]) << "point probe " << i;
    }
  }
  if (caps.range_lookup) {
    std::vector<KeyRange<Key>> ranges;
    for (std::size_t i = 0; i + 1 < probes.size(); i += 2) {
      const Key lo = std::min(probes[i], probes[i + 1]);
      ranges.push_back({lo, static_cast<Key>(lo + 1000)});
    }
    std::vector<LookupResult> expected;
    std::vector<LookupResult> actual;
    original.RangeLookupBatch(ranges, &expected);
    restored.RangeLookupBatch(ranges, &actual);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      ASSERT_EQ(expected[i], actual[i]) << "range probe " << i;
    }
  }
}

template <typename Key>
void RunRoundTrip(const std::string& backend, const IndexOptions& options,
                  std::size_t num_keys = 3000) {
  const std::filesystem::path dir = ScratchDir("roundtrip");
  const std::vector<Key> keys = MakeKeys<Key>(num_keys, 42);
  IndexPtr<Key> original = MakeIndex<Key>(backend, options);
  ASSERT_TRUE(original->capabilities().persistence)
      << backend << " should support persistence";
  original->Build(keys);

  const std::filesystem::path file = dir / "index.cgrx";
  SaveIndex(*original, file, SaveOptions{7});
  std::uint64_t epoch = 0;
  OpenOptions open_options;
  open_options.epoch_out = &epoch;
  IndexPtr<Key> restored = OpenIndex<Key>(file, open_options);
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(restored->name(), original->name());

  std::vector<Key> probes = MakeKeys<Key>(500, 43);  // Mostly misses.
  probes.insert(probes.end(), keys.begin(), keys.begin() + 500);  // Hits.
  ExpectSameAnswers(*original, *restored, probes);

  // Updatable backends must keep answering identically after a
  // post-restore combined wave applied to both instances.
  if (original->capabilities().updates) {
    std::vector<Key> ins = MakeKeys<Key>(300, 44);
    std::vector<std::uint32_t> rows(ins.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<std::uint32_t>(900000 + i);
    }
    const std::vector<Key> dels(keys.begin() + 100, keys.begin() + 350);
    original->UpdateBatch(ins, rows, dels);
    restored->UpdateBatch(ins, rows, dels);
    ExpectSameAnswers(*original, *restored, probes);
  }
  std::filesystem::remove_all(dir);
}

struct RoundTripParam {
  std::string backend;
  int key_bits;
};

class SnapshotRoundTripTest
    : public ::testing::TestWithParam<RoundTripParam> {};

std::string RoundTripName(
    const ::testing::TestParamInfo<RoundTripParam>& info) {
  return info.param.backend + "_" + std::to_string(info.param.key_bits);
}

std::vector<RoundTripParam> RoundTripParams() {
  std::vector<RoundTripParam> params;
  for (const char* backend : kAllBackends) {
    params.push_back({backend, 32});
    params.push_back({backend, 64});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SnapshotRoundTripTest,
                         ::testing::ValuesIn(RoundTripParams()),
                         RoundTripName);

TEST_P(SnapshotRoundTripTest, SaveOpenAnswersIdentically) {
  if (GetParam().key_bits == 32) {
    RunRoundTrip<std::uint32_t>(GetParam().backend, {});
  } else {
    RunRoundTrip<std::uint64_t>(GetParam().backend, {});
  }
}

// ---------------------------------------------------------------------
// Sharded composites: per-shard sections behind the same entry points.
// ---------------------------------------------------------------------

TEST(SnapshotShardedTest, RangeShardedCgrxuRoundTrip) {
  IndexOptions options;
  options.shard_count = 4;
  options.shard_scheme = api::ShardScheme::kRange;
  RunRoundTrip<std::uint64_t>("sharded:cgrxu", options);
}

TEST(SnapshotShardedTest, HashShardedSortedArrayRoundTrip) {
  IndexOptions options;
  options.shard_count = 3;
  options.shard_scheme = api::ShardScheme::kHash;
  RunRoundTrip<std::uint32_t>("sharded:sa", options);
}

// ---------------------------------------------------------------------
// Native snapshots restore the exact structures: byte-identical wide
// BVH node arrays, no rebuild.
// ---------------------------------------------------------------------

TEST(SnapshotNativeTest, CgrxReloadsByteIdenticalBvh4Nodes) {
  const std::filesystem::path dir = ScratchDir("bvh4");
  IndexPtr<std::uint64_t> original = MakeIndex<std::uint64_t>("cgrx");
  original->Build(MakeKeys<std::uint64_t>(20000, 7));
  SaveIndex(*original, dir / "cgrx.cgrx");
  IndexPtr<std::uint64_t> restored = OpenIndex<std::uint64_t>(dir /
                                                              "cgrx.cgrx");

  using Adapter = api::IndexAdapter<core::CgrxIndex<std::uint64_t>>;
  auto* a = dynamic_cast<Adapter*>(original.get());
  auto* b = dynamic_cast<Adapter*>(restored.get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const auto& nodes_a = a->impl().rep_scene().scene().bvh4().nodes();
  const auto& nodes_b = b->impl().rep_scene().scene().bvh4().nodes();
  ASSERT_FALSE(nodes_a.empty());
  ASSERT_EQ(nodes_a.size(), nodes_b.size());
  EXPECT_EQ(std::memcmp(nodes_a.data(), nodes_b.data(),
                        nodes_a.size() * sizeof(rt::Bvh4::Node)),
            0)
      << "wide BVH nodes must reload byte-identical, not rebuilt";
  EXPECT_EQ(a->impl().rep_scene().scene().bvh().prim_indices(),
            b->impl().rep_scene().scene().bvh().prim_indices());
  std::filesystem::remove_all(dir);
}

TEST(SnapshotNativeTest, CgrxuReloadsByteIdenticalBvh4Nodes) {
  const std::filesystem::path dir = ScratchDir("bvh4u");
  IndexPtr<std::uint64_t> original = MakeIndex<std::uint64_t>("cgrxu");
  original->Build(MakeKeys<std::uint64_t>(20000, 9));
  // Snapshot a post-update structure: node splits and chains included.
  auto ins = MakeKeys<std::uint64_t>(5000, 10);
  std::vector<std::uint32_t> rows(ins.size(), 1);
  original->UpdateBatch(ins, rows, {});
  SaveIndex(*original, dir / "cgrxu.cgrx");
  IndexPtr<std::uint64_t> restored =
      OpenIndex<std::uint64_t>(dir / "cgrxu.cgrx");

  using Adapter = api::IndexAdapter<core::CgrxuIndex<std::uint64_t>>;
  auto* a = dynamic_cast<Adapter*>(original.get());
  auto* b = dynamic_cast<Adapter*>(restored.get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const auto& nodes_a = a->impl().rep_scene().scene().bvh4().nodes();
  const auto& nodes_b = b->impl().rep_scene().scene().bvh4().nodes();
  ASSERT_FALSE(nodes_a.empty());
  ASSERT_EQ(nodes_a.size(), nodes_b.size());
  EXPECT_EQ(std::memcmp(nodes_a.data(), nodes_b.data(),
                        nodes_a.size() * sizeof(rt::Bvh4::Node)),
            0);
  EXPECT_EQ(a->impl().used_nodes(), b->impl().used_nodes());
  std::filesystem::remove_all(dir);
}

TEST(SnapshotNativeTest, MissFilterAndMappingOverrideSurviveRoundTrip) {
  IndexOptions options;
  options.miss_filter_bits_per_key = 8;
  options.mapping_override = util::KeyMapping::Example();
  const std::filesystem::path dir = ScratchDir("filter");
  IndexPtr<std::uint64_t> original = MakeIndex<std::uint64_t>("cgrx",
                                                              options);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 500; k += 3) keys.push_back(k);
  original->Build(keys);
  SaveIndex(*original, dir / "f.cgrx");
  IndexPtr<std::uint64_t> restored = OpenIndex<std::uint64_t>(dir /
                                                              "f.cgrx");
  EXPECT_EQ(restored->creation_options().mapping_override,
            options.mapping_override);
  std::vector<std::uint64_t> probes;
  for (std::uint64_t k = 0; k < 600; ++k) probes.push_back(k);
  ExpectSameAnswers(*original, *restored, probes);
  // The filter state itself must match: identical rejection counts on
  // an all-miss probe run.
  const api::IndexStats original_before = original->Stats();
  const api::IndexStats restored_before = restored->Stats();
  std::vector<std::uint64_t> misses;
  for (std::uint64_t k = 1; k < 500; k += 3) misses.push_back(k);
  std::vector<LookupResult> sink;
  original->PointLookupBatch(misses, &sink);
  restored->PointLookupBatch(misses, &sink);
  EXPECT_EQ(original->Stats().Delta(original_before).filter_rejections,
            restored->Stats().Delta(restored_before).filter_rejections);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Snapshot rejection: damage, version skew, width mismatch.
// ---------------------------------------------------------------------

class SnapshotRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ScratchDir("reject");
    file_ = dir_ / "index.cgrx";
    IndexPtr<std::uint64_t> index = MakeIndex<std::uint64_t>("sa");
    index->Build(MakeKeys<std::uint64_t>(1000, 5));
    SaveIndex(*index, file_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::uint8_t> FileBytes() { return ReadFileBytes(file_); }

  void WriteBytes(const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen(file_.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  std::filesystem::path dir_;
  std::filesystem::path file_;
};

TEST_F(SnapshotRejectionTest, FlippedPayloadByteIsCorruption) {
  std::vector<std::uint8_t> bytes = FileBytes();
  bytes[bytes.size() - 20] ^= 0x40;  // Inside the last section payload.
  WriteBytes(bytes);
  EXPECT_THROW(OpenIndex<std::uint64_t>(file_), CorruptionError);
}

TEST_F(SnapshotRejectionTest, FlippedHeaderByteIsCorruption) {
  std::vector<std::uint8_t> bytes = FileBytes();
  bytes[13] ^= 0x01;  // Key-bits field; header CRC must catch it.
  WriteBytes(bytes);
  EXPECT_THROW(OpenIndex<std::uint64_t>(file_), Error);
}

TEST_F(SnapshotRejectionTest, TruncatedFileIsCorruption) {
  std::vector<std::uint8_t> bytes = FileBytes();
  bytes.resize(bytes.size() / 2);
  WriteBytes(bytes);
  EXPECT_THROW(OpenIndex<std::uint64_t>(file_), CorruptionError);
}

TEST_F(SnapshotRejectionTest,
       PreviousAndFutureVersionsAreRejectedWithBothVersions) {
  const std::vector<std::uint8_t> original = FileBytes();
  // The previous layout and a future one.
  for (const std::uint32_t version : {kSnapshotVersion - 1, 99u}) {
    SCOPED_TRACE(version);
    std::vector<std::uint8_t> bytes = original;
    // Version field sits right after the 8-byte magic; the header CRC is
    // recomputed so only the version disagrees.
    bytes[8] = static_cast<std::uint8_t>(version);
    util::ByteReader r(bytes.data(), bytes.size());
    // Recompute the header CRC: parse up to the CRC position.
    r.Skip(12);                     // magic + version.
    r.Skip(4);                      // key_bits.
    const std::uint32_t name_len = r.ReadU32();
    r.Skip(name_len + 8 + 8 + 8);   // name + entries + epoch + sections.
    const std::size_t crc_pos = bytes.size() - r.remaining();
    const std::uint32_t crc = util::Crc32c(bytes.data(), crc_pos);
    bytes[crc_pos + 0] = static_cast<std::uint8_t>(crc);
    bytes[crc_pos + 1] = static_cast<std::uint8_t>(crc >> 8);
    bytes[crc_pos + 2] = static_cast<std::uint8_t>(crc >> 16);
    bytes[crc_pos + 3] = static_cast<std::uint8_t>(crc >> 24);
    WriteBytes(bytes);
    try {
      OpenIndex<std::uint64_t>(file_);
      FAIL() << "expected VersionMismatchError";
    } catch (const VersionMismatchError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("version " + std::to_string(version)),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("version " + std::to_string(kSnapshotVersion)),
                std::string::npos)
          << message;
    }
  }
}

TEST_F(SnapshotRejectionTest, WrongKeyWidthIsRejected) {
  try {
    OpenIndex<std::uint32_t>(file_);
    FAIL() << "expected Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("64-bit"), std::string::npos)
        << error.what();
  }
}

// ---------------------------------------------------------------------
// Write-ahead log.
// ---------------------------------------------------------------------

using Wal64 = WriteAheadLog<std::uint64_t>;
using Wave64 = UpdateWave<std::uint64_t>;

/// Deterministic wave for an epoch (small key values on purpose: no
/// byte pattern can collide with the record magic, keeping the
/// torn-tail sweep's expectations exact).
Wave64 WaveFor(std::uint64_t epoch) {
  Wave64 wave;
  for (std::uint64_t i = 0; i < 16 + epoch % 7; ++i) {
    wave.insert_keys.push_back(epoch * 1000 + i);
    wave.insert_rows.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::uint64_t i = 0; i < epoch % 5; ++i) {
    wave.erase_keys.push_back((epoch - 1) * 1000 + i);
  }
  return wave;
}

void ExpectWaveEq(const Wave64& expected, const Wave64& actual) {
  EXPECT_EQ(expected.insert_keys, actual.insert_keys);
  EXPECT_EQ(expected.insert_rows, actual.insert_rows);
  EXPECT_EQ(expected.erase_keys, actual.erase_keys);
}

TEST(WalTest, GroupCommittedRecordsReplayInOrder) {
  const std::filesystem::path dir = ScratchDir("wal");
  const std::filesystem::path path = dir / "wal.log";
  {
    Wal64 wal = Wal64::Create(path);
    for (std::uint64_t e = 1; e <= 5; ++e) wal.Append(WaveFor(e), e);
    wal.Commit();  // One durability point for five records.
    wal.AppendCommitted(WaveFor(6), 6);
    EXPECT_EQ(wal.last_epoch(), 6u);
  }
  std::vector<std::uint64_t> epochs;
  Wal64 reopened = Wal64::Open(path, [&](Wave64 wave, std::uint64_t epoch) {
    ExpectWaveEq(WaveFor(epoch), wave);
    epochs.push_back(epoch);
  });
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(reopened.last_epoch(), 6u);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, UncommittedAppendsAreNotDurable) {
  const std::filesystem::path dir = ScratchDir("walstage");
  const std::filesystem::path path = dir / "wal.log";
  {
    Wal64 wal = Wal64::Create(path);
    wal.AppendCommitted(WaveFor(1), 1);
    wal.Append(WaveFor(2), 2);  // Staged, never committed ("crash").
  }
  int replayed = 0;
  Wal64::Open(path, [&](Wave64, std::uint64_t) { ++replayed; });
  EXPECT_EQ(replayed, 1);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, ReplayIsIdempotentViaEpochCursor) {
  const std::filesystem::path dir = ScratchDir("walidem");
  const std::filesystem::path path = dir / "wal.log";
  {
    Wal64 wal = Wal64::Create(path);
    for (std::uint64_t e = 1; e <= 4; ++e) wal.AppendCommitted(WaveFor(e), e);
  }
  // First replay from epoch 0 sees everything; a second replay with the
  // cursor at the already-applied epoch sees nothing -- recovering
  // twice (or recovering after a checkpoint at epoch 4) applies no
  // wave twice.
  std::vector<std::uint64_t> first;
  Wal64::Open(path, [&](Wave64, std::uint64_t e) { first.push_back(e); });
  EXPECT_EQ(first, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  std::vector<std::uint64_t> second;
  Wal64::Open(path, [&](Wave64, std::uint64_t e) { second.push_back(e); },
              /*after_epoch=*/4);
  EXPECT_TRUE(second.empty());
  std::vector<std::uint64_t> partial;
  Wal64::Open(path, [&](Wave64, std::uint64_t e) { partial.push_back(e); },
              /*after_epoch=*/2);
  EXPECT_EQ(partial, (std::vector<std::uint64_t>{3, 4}));
  std::filesystem::remove_all(dir);
}

TEST(WalTest, TornTailIsTruncatedAtEveryCutPoint) {
  const std::filesystem::path dir = ScratchDir("waltear");
  const std::filesystem::path path = dir / "wal.log";
  std::uintmax_t size_after_two = 0;
  {
    Wal64 wal = Wal64::Create(path);
    wal.AppendCommitted(WaveFor(1), 1);
    wal.AppendCommitted(WaveFor(2), 2);
    wal.Commit();
    size_after_two = std::filesystem::file_size(path);
    wal.AppendCommitted(WaveFor(3), 3);
  }
  const std::uintmax_t full_size = std::filesystem::file_size(path);
  const std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  // Every possible crash point inside the third append must recover to
  // exactly the two intact records, and the file must be truncated so a
  // subsequent append lands cleanly.
  for (std::uintmax_t cut = size_after_two; cut < full_size; ++cut) {
    const std::filesystem::path torn = dir / "torn.log";
    {
      std::FILE* f = std::fopen(torn.string().c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, cut, f),
                static_cast<std::size_t>(cut));
      std::fclose(f);
    }
    std::vector<std::uint64_t> epochs;
    {
      Wal64 wal = Wal64::Open(torn, [&](Wave64 wave, std::uint64_t e) {
        ExpectWaveEq(WaveFor(e), wave);
        epochs.push_back(e);
      });
      ASSERT_EQ(epochs, (std::vector<std::uint64_t>{1, 2})) << "cut=" << cut;
      ASSERT_EQ(std::filesystem::file_size(torn), size_after_two);
      wal.AppendCommitted(WaveFor(3), 3);  // Appending resumes cleanly.
    }
    epochs.clear();
    Wal64::Open(torn, [&](Wave64, std::uint64_t e) { epochs.push_back(e); });
    ASSERT_EQ(epochs, (std::vector<std::uint64_t>{1, 2, 3})) << "cut=" << cut;
    std::filesystem::remove(torn);
  }
  std::filesystem::remove_all(dir);
}

TEST(WalTest, UndoLastCommitWithdrawsTheRecord) {
  const std::filesystem::path dir = ScratchDir("walundo");
  const std::filesystem::path path = dir / "wal.log";
  {
    Wal64 wal = Wal64::Create(path);
    wal.AppendCommitted(WaveFor(1), 1);
    wal.AppendCommitted(WaveFor(2), 2);
    EXPECT_EQ(wal.last_epoch(), 2u);
    wal.UndoLastCommit();
    EXPECT_EQ(wal.last_epoch(), 1u);
    // Epoch 2 is free again; the replacement wave takes it.
    wal.AppendCommitted(WaveFor(2), 2);
  }
  std::vector<std::uint64_t> epochs;
  Wal64::Open(path, [&](Wave64 wave, std::uint64_t e) {
    ExpectWaveEq(WaveFor(e), wave);
    epochs.push_back(e);
  });
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 2}));
  std::filesystem::remove_all(dir);
}

TEST(WalTest, TornTailContainingRecordMagicBytesStillTruncates) {
  const std::filesystem::path dir = ScratchDir("walmagic");
  const std::filesystem::path path = dir / "wal.log";
  std::uintmax_t size_after_one = 0;
  {
    Wal64 wal = Wal64::Create(path);
    wal.AppendCommitted(WaveFor(1), 1);
    size_after_one = std::filesystem::file_size(path);
    // A wave whose key bytes embed the record magic ("WREC" little-
    // endian): a torn tail of this record contains magic-lookalike
    // bytes, which must NOT be mistaken for an intact record after
    // mid-file corruption.
    Wave64 wave;
    for (int i = 0; i < 64; ++i) {
      wave.insert_keys.push_back(0x4345525743455257ULL);
      wave.insert_rows.push_back(0x43455257u);
    }
    wal.AppendCommitted(wave, 2);
  }
  const std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  // Cut inside record 2's payload, past several embedded magic
  // sequences.
  const std::uintmax_t cut = size_after_one + (bytes.size() -
                                               size_after_one) * 3 / 4;
  {
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, cut,
                          f), static_cast<std::size_t>(cut));
    std::fclose(f);
  }
  std::vector<std::uint64_t> epochs;
  Wal64::Open(path, [&](Wave64, std::uint64_t e) { epochs.push_back(e); });
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1}))
      << "magic bytes inside the torn payload must still truncate";
  EXPECT_EQ(std::filesystem::file_size(path), size_after_one);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, MidFileCorruptionWithIntactTailThrows) {
  const std::filesystem::path dir = ScratchDir("walmid");
  const std::filesystem::path path = dir / "wal.log";
  {
    Wal64 wal = Wal64::Create(path);
    for (std::uint64_t e = 1; e <= 3; ++e) wal.AppendCommitted(WaveFor(e), e);
  }
  std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  bytes[30] ^= 0xff;  // Inside record 1; records 2 and 3 stay intact.
  {
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  // Silently truncating here would drop applied history; refuse.
  EXPECT_THROW(Wal64::Open(path, nullptr), CorruptionError);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, VersionAndWidthMismatchAreRejected) {
  const std::filesystem::path dir = ScratchDir("walver");
  const std::filesystem::path path = dir / "wal.log";
  { Wal64::Create(path); }
  EXPECT_THROW(WriteAheadLog<std::uint32_t>::Open(path, nullptr), Error);

  std::vector<std::uint8_t> bytes = ReadFileBytes(path);
  bytes[8] = 42;  // Version field; recompute the header CRC.
  const std::uint32_t crc = util::Crc32c(bytes.data(), 16);
  for (int i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  {
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  try {
    Wal64::Open(path, nullptr);
    FAIL() << "expected VersionMismatchError";
  } catch (const VersionMismatchError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("42"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(kWalVersion)), std::string::npos)
        << message;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// IndexStore: snapshot + log + manifest under one directory.
// ---------------------------------------------------------------------

TEST(IndexStoreTest, RecoverReplaysLoggedWavesExactly) {
  const std::filesystem::path dir = ScratchDir("store");
  IndexPtr<std::uint64_t> reference = MakeIndex<std::uint64_t>("cgrxu");
  reference->Build(MakeKeys<std::uint64_t>(4000, 11));
  auto store = IndexStore<std::uint64_t>::Create(dir, *reference);

  // Log three waves, applying each to the reference ("the crash loses
  // the in-memory index, the log has the waves").
  for (std::uint64_t e = 1; e <= 3; ++e) {
    const Wave64 wave = WaveFor(e);
    store.LogWave(wave.insert_keys, wave.insert_rows, wave.erase_keys, e);
    reference->UpdateBatch(wave.insert_keys, wave.insert_rows,
                           wave.erase_keys);
  }

  auto reopened = IndexStore<std::uint64_t>::Open(dir);
  auto recovered = reopened.Recover();
  EXPECT_EQ(recovered.epoch, 3u);
  std::vector<std::uint64_t> probes = MakeKeys<std::uint64_t>(800, 12);
  for (std::uint64_t e = 1; e <= 3; ++e) {
    probes.push_back(e * 1000 + 1);  // Keys the waves inserted.
  }
  ExpectSameAnswers(*reference, *recovered.index, probes);
  std::filesystem::remove_all(dir);
}

TEST(IndexStoreTest, CheckpointTruncatesLogAndGarbageCollects) {
  const std::filesystem::path dir = ScratchDir("storecp");
  IndexPtr<std::uint64_t> index = MakeIndex<std::uint64_t>("cgrxu");
  index->Build(MakeKeys<std::uint64_t>(4000, 13));
  auto store = IndexStore<std::uint64_t>::Create(dir, *index);

  for (std::uint64_t e = 1; e <= 2; ++e) {
    const Wave64 wave = WaveFor(e);
    store.LogWave(wave.insert_keys, wave.insert_rows, wave.erase_keys, e);
    index->UpdateBatch(wave.insert_keys, wave.insert_rows, wave.erase_keys);
  }
  // Orphans a crash could leave mid-checkpoint: swept by the next
  // checkpoint along with the superseded pair.
  { std::FILE* f = std::fopen((dir / "snapshot-99.cgrx").string().c_str(),
                              "wb"); std::fclose(f); }
  { std::FILE* f = std::fopen((dir / "wal-99.log").string().c_str(), "wb");
    std::fclose(f); }
  store.Checkpoint(*index, 2);
  EXPECT_EQ(store.snapshot_epoch(), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir / "snapshot-2.cgrx"));
  EXPECT_TRUE(std::filesystem::exists(dir / "wal-2.log"));
  EXPECT_FALSE(std::filesystem::exists(dir / "snapshot-0.cgrx"))
      << "superseded snapshot must be garbage-collected";
  EXPECT_FALSE(std::filesystem::exists(dir / "wal-0.log"));
  EXPECT_FALSE(std::filesystem::exists(dir / "snapshot-99.cgrx"))
      << "crash orphans must be swept";
  EXPECT_FALSE(std::filesystem::exists(dir / "wal-99.log"));

  // Post-checkpoint waves land in the fresh log; recovery = snapshot@2
  // + wave 3 exactly once.
  const Wave64 wave = WaveFor(3);
  store.LogWave(wave.insert_keys, wave.insert_rows, wave.erase_keys, 3);
  index->UpdateBatch(wave.insert_keys, wave.insert_rows, wave.erase_keys);

  auto recovered = IndexStore<std::uint64_t>::Open(dir).Recover();
  EXPECT_EQ(recovered.epoch, 3u);
  std::vector<std::uint64_t> probes = MakeKeys<std::uint64_t>(800, 14);
  ExpectSameAnswers(*index, *recovered.index, probes);
  std::filesystem::remove_all(dir);
}

TEST(IndexStoreTest, RecoveryRefusesEpochGaps) {
  const std::filesystem::path dir = ScratchDir("storegap");
  IndexPtr<std::uint64_t> index = MakeIndex<std::uint64_t>("sa");
  index->Build(MakeKeys<std::uint64_t>(500, 15));
  auto store = IndexStore<std::uint64_t>::Create(dir, *index);
  const Wave64 w1 = WaveFor(1);
  const Wave64 w3 = WaveFor(3);
  store.LogWave(w1.insert_keys, w1.insert_rows, w1.erase_keys, 1);
  store.LogWave(w3.insert_keys, w3.insert_rows, w3.erase_keys, 3);  // Gap.
  auto reopened = IndexStore<std::uint64_t>::Open(dir);
  EXPECT_THROW(reopened.Recover(), CorruptionError)
      << "a missing epoch means snapshot+log cannot reproduce history";
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// DurableIndexService: durability through the dispatcher.
// ---------------------------------------------------------------------

TEST(DurableServiceTest, RejectedWaveIsWithdrawnFromTheLog) {
  const std::filesystem::path dir = ScratchDir("durablereject");
  // RTScan persists but supports no updates: the wave is write-ahead
  // logged, then the apply throws -- the record must be withdrawn so
  // recovery reproduces the pre-wave state and the epoch stays free.
  IndexPtr<std::uint64_t> served = MakeIndex<std::uint64_t>("rtscan");
  const std::vector<std::uint64_t> keys = MakeKeys<std::uint64_t>(1000, 51);
  served->Build(keys);
  std::vector<core::KeyRange<std::uint64_t>> probes;
  for (std::size_t i = 0; i + 1 < 100; i += 2) {
    const std::uint64_t lo = std::min(keys[i], keys[i + 1]);
    probes.push_back({lo, lo + 5000});
  }
  std::vector<LookupResult> want;
  served->RangeLookupBatch(probes, &want);
  {
    auto durable = DurableIndexService<std::uint64_t>::Create(dir, served);
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto ticket = durable.SubmitUpdate({123}, {7}, {});
      EXPECT_THROW(ticket.get(), api::UnsupportedOperationError);
    }
    EXPECT_EQ(durable.epoch(), 0u) << "rejected waves complete no epoch";
  }
  DurableIndexService<std::uint64_t> recovered(dir);
  EXPECT_EQ(recovered.epoch(), 0u)
      << "withdrawn records must not replay at recovery";
  const auto got = recovered.SubmitRangeLookups(probes).get();
  ASSERT_EQ(got.results.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.results[i], want[i]) << "probe " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(DurableServiceTest, CrashAfterUpdatesRecoversExactPreCrashEpoch) {
  const std::filesystem::path dir = ScratchDir("durable");
  IndexPtr<std::uint64_t> reference = MakeIndex<std::uint64_t>("cgrxu");
  const std::vector<std::uint64_t> keys = MakeKeys<std::uint64_t>(4000, 21);
  reference->Build(keys);

  {
    IndexPtr<std::uint64_t> served = MakeIndex<std::uint64_t>("cgrxu");
    served->Build(keys);
    auto durable = DurableIndexService<std::uint64_t>::Create(dir, served);
    for (std::uint64_t e = 1; e <= 5; ++e) {
      const Wave64 wave = WaveFor(e);
      durable
          .SubmitUpdate(wave.insert_keys, wave.insert_rows, wave.erase_keys)
          .get();
      reference->UpdateBatch(wave.insert_keys, wave.insert_rows,
                             wave.erase_keys);
    }
    EXPECT_EQ(durable.epoch(), 5u);
    // Scope exit without Checkpoint: the in-memory index is "lost";
    // only Create()'s epoch-0 snapshot and the log survive.
  }

  DurableIndexService<std::uint64_t> recovered(dir);
  EXPECT_EQ(recovered.epoch(), 5u);
  std::vector<std::uint64_t> probes = MakeKeys<std::uint64_t>(800, 22);
  std::vector<LookupResult> want;
  reference->PointLookupBatch(probes, &want);
  const auto got = recovered.SubmitPointLookups(probes).get();
  ASSERT_EQ(got.results.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.results[i], want[i]) << "probe " << i;
  }
  EXPECT_EQ(got.epoch, 5u);
  std::filesystem::remove_all(dir);
}

TEST(DurableServiceTest, CheckpointAtEpochBoundaryThenMoreWaves) {
  const std::filesystem::path dir = ScratchDir("durablecp");
  IndexPtr<std::uint64_t> reference = MakeIndex<std::uint64_t>("cgrxu");
  const std::vector<std::uint64_t> keys = MakeKeys<std::uint64_t>(4000, 31);
  reference->Build(keys);

  {
    IndexPtr<std::uint64_t> served = MakeIndex<std::uint64_t>("cgrxu");
    served->Build(keys);
    auto durable = DurableIndexService<std::uint64_t>::Create(dir, served);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      const Wave64 wave = WaveFor(e);
      durable
          .SubmitUpdate(wave.insert_keys, wave.insert_rows, wave.erase_keys)
          .get();
      reference->UpdateBatch(wave.insert_keys, wave.insert_rows,
                             wave.erase_keys);
    }
    EXPECT_EQ(durable.Checkpoint().get(), 3u);
    EXPECT_EQ(durable.store().snapshot_epoch(), 3u);
    for (std::uint64_t e = 4; e <= 6; ++e) {
      const Wave64 wave = WaveFor(e);
      durable
          .SubmitUpdate(wave.insert_keys, wave.insert_rows, wave.erase_keys)
          .get();
      reference->UpdateBatch(wave.insert_keys, wave.insert_rows,
                             wave.erase_keys);
    }
  }

  DurableIndexService<std::uint64_t> recovered(dir);
  EXPECT_EQ(recovered.epoch(), 6u);
  std::vector<std::uint64_t> probes = MakeKeys<std::uint64_t>(800, 32);
  std::vector<LookupResult> want;
  reference->PointLookupBatch(probes, &want);
  const auto got = recovered.SubmitPointLookups(probes).get();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.results[i], want[i]) << "probe " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(DurableServiceTest, CheckpointInterleavedWithConcurrentTraffic) {
  const std::filesystem::path dir = ScratchDir("durablemix");
  IndexPtr<std::uint64_t> served = MakeIndex<std::uint64_t>("cgrxu");
  served->Build(MakeKeys<std::uint64_t>(2000, 41));
  auto durable = DurableIndexService<std::uint64_t>::Create(dir, served);
  // Interleave reads, updates and checkpoints without awaiting each:
  // admission order still serializes them; every checkpoint must land
  // on a wave boundary (its reported epoch equals some completed
  // count, and recovery below must see the final epoch).
  std::vector<std::future<std::uint64_t>> checkpoints;
  for (std::uint64_t e = 1; e <= 8; ++e) {
    const Wave64 wave = WaveFor(e);
    durable.SubmitUpdate(wave.insert_keys, wave.insert_rows,
                         wave.erase_keys);
    durable.SubmitPointLookups(MakeKeys<std::uint64_t>(64, e));
    if (e % 3 == 0) checkpoints.push_back(durable.Checkpoint());
  }
  durable.Drain();
  std::uint64_t last_checkpoint = 0;
  for (auto& ticket : checkpoints) {
    const std::uint64_t epoch = ticket.get();
    EXPECT_GE(epoch, last_checkpoint);
    last_checkpoint = epoch;
  }
  EXPECT_EQ(durable.epoch(), 8u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Fault injection: the util::FaultInjector hooks compiled into the WAL
// commit path and TempFileWriter's atomic replace. Each test drives
// one failure deterministically (fire_at pins the exact evaluation)
// and checks the documented failure-atomicity contract.
// ---------------------------------------------------------------------

TEST(FaultInjectionTest, WalFsyncFailureDropsStagedRecords) {
  const std::filesystem::path dir = ScratchDir("faultfsync");
  const std::filesystem::path path = dir / "wal.log";
  Wal64 wal = Wal64::Create(path);
  wal.AppendCommitted(WaveFor(1), 1);
  const std::uintmax_t durable_size = std::filesystem::file_size(path);

  {
    util::ScopedFaultInjection faults(7);
    util::FaultInjector::PointConfig config;
    config.fire_at = 0;
    faults.injector().Configure("wal.fsync", config);
    wal.Append(WaveFor(2), 2);
    wal.Append(WaveFor(3), 3);
    EXPECT_THROW(wal.Commit(), Error);
    EXPECT_EQ(faults.injector().fires("wal.fsync"), 1u);
  }
  // The failed group commit dropped both staged records: file back at
  // the durable prefix, epoch cursor rewound, epochs free for reuse.
  EXPECT_EQ(std::filesystem::file_size(path), durable_size);
  EXPECT_EQ(wal.last_epoch(), 1u);
  wal.AppendCommitted(WaveFor(2), 2);
  std::vector<std::uint64_t> epochs;
  Wal64::Open(path, [&](Wave64 wave, std::uint64_t e) {
    ExpectWaveEq(WaveFor(e), wave);
    epochs.push_back(e);
  });
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 2}));
  std::filesystem::remove_all(dir);
}

TEST(FaultInjectionTest, WalShortWriteTruncatesCleanly) {
  const std::filesystem::path dir = ScratchDir("faultshort");
  const std::filesystem::path path = dir / "wal.log";
  Wal64 wal = Wal64::Create(path);
  wal.AppendCommitted(WaveFor(1), 1);
  const std::uintmax_t durable_size = std::filesystem::file_size(path);

  {
    util::ScopedFaultInjection faults(7);
    util::FaultInjector::PointConfig config;
    config.fire_at = 0;
    faults.injector().Configure("wal.short_write", config);
    wal.Append(WaveFor(2), 2);
    EXPECT_THROW(wal.Commit(), Error);
  }
  // The injected prefix write left torn bytes past the durable size;
  // the rollback must truncate them so the next append lands cleanly
  // (no torn record for recovery to chew through).
  EXPECT_EQ(std::filesystem::file_size(path), durable_size);
  wal.AppendCommitted(WaveFor(2), 2);
  std::vector<std::uint64_t> epochs;
  Wal64::Open(path, [&](Wave64 wave, std::uint64_t e) {
    ExpectWaveEq(WaveFor(e), wave);
    epochs.push_back(e);
  });
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 2}));
  std::filesystem::remove_all(dir);
}

TEST(FaultInjectionTest, SnapshotRenameFailureLeavesOldManifestIntact) {
  const std::filesystem::path dir = ScratchDir("faultrename");
  IndexPtr<std::uint64_t> index = MakeIndex<std::uint64_t>("cgrxu");
  const std::vector<std::uint64_t> keys = MakeKeys<std::uint64_t>(1000, 61);
  index->Build(keys);
  auto store = IndexStore<std::uint64_t>::Create(dir, *index);
  const Wave64 wave = WaveFor(1);
  store.LogWave(wave.insert_keys, wave.insert_rows, wave.erase_keys, 1);
  index->UpdateBatch(wave.insert_keys, wave.insert_rows, wave.erase_keys);

  {
    util::ScopedFaultInjection faults(7);
    util::FaultInjector::PointConfig config;
    config.fire_at = 0;  // First atomic replace of the checkpoint.
    faults.injector().Configure("snapshot.rename", config);
    EXPECT_THROW(store.Checkpoint(*index, 1), Error);
  }
  // The failed checkpoint must not have swapped the manifest: the
  // epoch-0 snapshot plus the logged wave still reproduce the state,
  // and the store keeps serving (a later wave logs fine).
  EXPECT_EQ(store.snapshot_epoch(), 0u);
  const Wave64 second = WaveFor(2);
  store.LogWave(second.insert_keys, second.insert_rows, second.erase_keys, 2);
  index->UpdateBatch(second.insert_keys, second.insert_rows,
                     second.erase_keys);

  auto recovered = IndexStore<std::uint64_t>::Open(dir).Recover();
  EXPECT_EQ(recovered.epoch, 2u);
  ExpectSameAnswers(*index, *recovered.index,
                    MakeKeys<std::uint64_t>(500, 62));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Kill-mid-append crash recovery (the "pull the plug" test): a child
// process appends waves in a tight loop until SIGKILLed; the parent
// recovers and must see a clean prefix 1..N of the wave sequence --
// whatever the kill tore off the tail is truncated, nothing else.
// ---------------------------------------------------------------------

#if !defined(_WIN32)
TEST(WalCrashTest, SigkillMidAppendRecoversCleanPrefix) {
  const std::filesystem::path dir = ScratchDir("kill");
  const std::filesystem::path path = dir / "wal.log";
  { Wal64::Create(path); }
  const std::uintmax_t header_size = std::filesystem::file_size(path);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: append forever; the parent kills us mid-write. _exit-only
    // territory (no gtest teardown, no stdio flushing).
    try {
      Wal64 wal = Wal64::Open(path, nullptr);
      for (std::uint64_t e = 1;; ++e) {
        wal.AppendCommitted(WaveFor(e), e);
      }
    } catch (...) {
      _exit(1);
    }
  }
  // Parent: wait until at least a few records are on disk, then kill.
  for (int spin = 0; spin < 10000; ++spin) {
    std::error_code ec;
    if (std::filesystem::file_size(path, ec) > header_size + 4096) break;
    ::usleep(1000);
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  std::uint64_t next_expected = 1;
  Wal64 recovered = Wal64::Open(path, [&](Wave64 wave, std::uint64_t e) {
    ASSERT_EQ(e, next_expected) << "recovered epochs must be a clean prefix";
    ExpectWaveEq(WaveFor(e), wave);
    ++next_expected;
  });
  EXPECT_GT(next_expected, 1u) << "child should have committed some waves";
  // The log stays usable: appending the next wave after recovery works.
  recovered.AppendCommitted(WaveFor(next_expected), next_expected);
  std::filesystem::remove_all(dir);
}
#endif  // !defined(_WIN32)

}  // namespace
}  // namespace cgrx::storage
