// Network serving tier suite (src/net): wire round-trips for every
// verb, frame edge cases (partial writes across frame boundaries,
// oversized frames, malformed payloads, abrupt disconnect mid-frame),
// admission control (token bucket + concurrency caps answering
// kResourceExhausted instead of queueing), the multi-index router
// (open/close/list, recovery over the wire), session read-your-writes
// under concurrent writers, and the Prometheus /metrics mapping over
// both HTTP and the in-process accessor. Part of the TSan suite.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/net/client.h"
#include "src/net/rate_limiter.h"
#include "src/net/router.h"
#include "src/net/server.h"
#include "src/net/session.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/util/serial.h"

namespace cgrx::net {
namespace {

using ::cgrx::core::KeyRange;

/// Fresh per-test scratch directory under the gtest temp root.
std::filesystem::path ScratchDir(const std::string& tag) {
  static int counter = 0;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("cgrx_net_" + tag + "_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Server::Options BaseOptions(const std::filesystem::path& root) {
  Server::Options options;
  options.root = root;
  return options;
}

TEST(NetServerTest, StartStopIdempotent) {
  Server server(BaseOptions(ScratchDir("startstop")));
  EXPECT_GT(server.port(), 0);
  server.Stop();
  server.Stop();  // Idempotent.
}

TEST(NetServerTest, PingReportsServerInfo) {
  Server server(BaseOptions(ScratchDir("ping")));
  Client client("localhost", server.port());
  const Client::PingReply reply = client.Ping();
  ASSERT_TRUE(reply.ok()) << reply.message;
  EXPECT_NE(reply.info.find("cgrx-serve"), std::string::npos);
}

TEST(NetServerTest, OpenWriteReadRoundTrip) {
  Server server(BaseOptions(ScratchDir("roundtrip")));
  Client client("localhost", server.port());

  const Client::OpenReply open = client.OpenIndex("t", "cgrxu");
  ASSERT_TRUE(open.ok()) << open.message;
  EXPECT_EQ(open.epoch, 0u);
  EXPECT_EQ(open.entries, 0u);

  const Client::UpdateReply update =
      client.Update("t", {10, 20, 30}, {1, 2, 3}, {});
  ASSERT_TRUE(update.ok()) << update.message;
  EXPECT_EQ(update.epoch, 1u);
  EXPECT_EQ(update.entries, 3u);

  const Client::LookupReply point = client.PointLookup("t", {10, 20, 99});
  ASSERT_TRUE(point.ok()) << point.message;
  ASSERT_EQ(point.results.size(), 3u);
  EXPECT_EQ(point.results[0].match_count, 1u);
  EXPECT_EQ(point.results[0].row_id_sum, 1u);
  EXPECT_EQ(point.results[1].row_id_sum, 2u);
  EXPECT_EQ(point.results[2].match_count, 0u);
  EXPECT_GE(point.epoch, 1u);

  const Client::LookupReply range =
      client.RangeLookup("t", {KeyRange<std::uint64_t>{10, 30}});
  ASSERT_TRUE(range.ok()) << range.message;
  ASSERT_EQ(range.results.size(), 1u);
  EXPECT_EQ(range.results[0].match_count, 3u);
  EXPECT_EQ(range.results[0].row_id_sum, 6u);

  const Client::StatsReply stats = client.Stats("t");
  ASSERT_TRUE(stats.ok()) << stats.message;
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_GE(stats.epoch, 1u);
}

TEST(NetServerTest, AdminVerbsAndErrorStatuses) {
  Server server(BaseOptions(ScratchDir("admin")));
  Client client("localhost", server.port());

  // Unknown index -> kNotFound on every data verb.
  EXPECT_EQ(client.PointLookup("nope", {1}).status, Status::kNotFound);
  EXPECT_EQ(client.Update("nope", {1}, {1}, {}).status, Status::kNotFound);
  EXPECT_EQ(client.Stats("nope").status, Status::kNotFound);
  EXPECT_EQ(client.Checkpoint("nope").status, Status::kNotFound);
  EXPECT_EQ(client.CloseIndex("nope").status, Status::kNotFound);

  // Bad names and backends -> kInvalidArgument.
  EXPECT_EQ(client.OpenIndex("../escape", "cgrxu").status,
            Status::kInvalidArgument);
  EXPECT_EQ(client.OpenIndex("ok", "no_such_backend").status,
            Status::kInvalidArgument);
  // One "sharded:" prefix at most: each nested one would multiply the
  // indexes the server allocates by the shard count.
  EXPECT_EQ(client.OpenIndex("nest", "sharded:sharded:btree").status,
            Status::kInvalidArgument);

  ASSERT_TRUE(client.OpenIndex("a", "btree").ok());
  ASSERT_TRUE(client.OpenIndex("b", "cgrxu").ok());
  // Idempotent re-open.
  EXPECT_TRUE(client.OpenIndex("a", "btree").ok());

  Client::ListReply list = client.ListIndexes();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.indexes.size(), 2u);
  EXPECT_EQ(list.indexes[0].name, "a");
  EXPECT_EQ(list.indexes[1].name, "b");

  // Close evicts: subsequent requests answer kNotFound, the rest serve.
  ASSERT_TRUE(client.CloseIndex("a").ok());
  EXPECT_EQ(client.PointLookup("a", {1}).status, Status::kNotFound);
  EXPECT_TRUE(client.Stats("b").ok());
  EXPECT_EQ(client.ListIndexes().indexes.size(), 1u);

  // Unknown session -> kInvalidArgument, not silent sessionless serve.
  client.UseSession(424242);
  EXPECT_EQ(client.PointLookup("b", {1}).status, Status::kInvalidArgument);
}

TEST(NetServerTest, ReopenRecoversOverTheWire) {
  const std::filesystem::path root = ScratchDir("recover");
  {
    Server server(BaseOptions(root));
    Client client("localhost", server.port());
    ASSERT_TRUE(client.OpenIndex("d", "cgrxu").ok());
    ASSERT_TRUE(client.Update("d", {7, 8}, {70, 80}, {}).ok());
    // No checkpoint: recovery must come from the WAL.
    ASSERT_TRUE(client.CloseIndex("d").ok());
  }
  Server server(BaseOptions(root));
  Client client("localhost", server.port());
  const Client::OpenReply open = client.OpenIndex("d", "");
  ASSERT_TRUE(open.ok()) << open.message;
  EXPECT_EQ(open.epoch, 1u);
  EXPECT_EQ(open.entries, 2u);
  const Client::LookupReply point = client.PointLookup("d", {7, 8});
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point.results[0].row_id_sum, 70u);
  EXPECT_EQ(point.results[1].row_id_sum, 80u);
}

// --- Wire edge cases ------------------------------------------------

TEST(NetWireTest, PartialWritesAcrossFrameBoundaries) {
  Server server(BaseOptions(ScratchDir("partial")));
  Client client("localhost", server.port());
  ASSERT_TRUE(client.OpenIndex("p", "btree").ok());
  ASSERT_TRUE(client.Update("p", {5}, {50}, {}).ok());

  // Hand-feed a point-lookup frame a few bytes at a time, crossing the
  // length-prefix/payload boundary mid-write; the server must
  // reassemble it like any stream fragment.
  util::ByteWriter request = client.Request(Verb::kPointLookup, "p");
  std::vector<std::uint64_t> keys{5};
  request.WritePodVector(keys);
  const std::vector<std::uint8_t>& body = request.bytes();
  std::vector<std::uint8_t> framed;
  const auto len = static_cast<std::uint32_t>(body.size());
  framed.push_back(static_cast<std::uint8_t>(len));
  framed.push_back(static_cast<std::uint8_t>(len >> 8));
  framed.push_back(static_cast<std::uint8_t>(len >> 16));
  framed.push_back(static_cast<std::uint8_t>(len >> 24));
  framed.insert(framed.end(), body.begin(), body.end());
  for (std::size_t i = 0; i < framed.size(); i += 3) {
    const std::size_t n = std::min<std::size_t>(3, framed.size() - i);
    client.socket().WriteAll(framed.data() + i, n);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.Receive(&payload));
  util::ByteReader in(payload);
  ASSERT_EQ(ResponseHeader::Decode(&in).status, Status::kOk);
  in.Skip(8);  // epoch
  const auto results = in.ReadPodVector<core::LookupResult>();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].row_id_sum, 50u);
}

TEST(NetWireTest, PipelinedFramesAnswerInOrder) {
  Server server(BaseOptions(ScratchDir("pipeline")));
  Client client("localhost", server.port());
  ASSERT_TRUE(client.OpenIndex("q", "btree").ok());
  ASSERT_TRUE(client.Update("q", {1, 2, 3}, {1, 2, 3}, {}).ok());

  constexpr int kDepth = 16;
  for (int i = 0; i < kDepth; ++i) {
    util::ByteWriter request = client.Request(Verb::kPointLookup, "q");
    std::vector<std::uint64_t> keys{static_cast<std::uint64_t>(i % 3 + 1)};
    request.WritePodVector(keys);
    client.Send(request);
  }
  for (int i = 0; i < kDepth; ++i) {
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(client.Receive(&payload));
    util::ByteReader in(payload);
    ASSERT_EQ(ResponseHeader::Decode(&in).status, Status::kOk);
    in.Skip(8);
    const auto results = in.ReadPodVector<core::LookupResult>();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].row_id_sum,
              static_cast<std::uint64_t>(i % 3 + 1));  // In order.
  }
}

TEST(NetWireTest, OversizedFrameRejectedAndConnectionClosed) {
  Server::Options options = BaseOptions(ScratchDir("oversized"));
  options.max_frame_bytes = 1024;
  Server server(options);
  Client client("localhost", server.port());

  const std::uint8_t header[4] = {0, 0, 1, 0};  // 65536 > 1024.
  client.socket().WriteAll(header, sizeof(header));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.Receive(&payload));
  util::ByteReader in(payload);
  const ResponseHeader response = ResponseHeader::Decode(&in);
  EXPECT_EQ(response.status, Status::kInvalidArgument);
  EXPECT_NE(response.message.find("exceeds"), std::string::npos);
  // The server cannot resync past an untrusted length: EOF follows.
  EXPECT_FALSE(client.Receive(&payload));
}

TEST(NetWireTest, MalformedPayloadAnswersAndKeepsConnection) {
  Server server(BaseOptions(ScratchDir("malformed")));
  Client client("localhost", server.port());

  // A 2-byte frame cannot hold a request header.
  const std::uint8_t frame[] = {2, 0, 0, 0, 0xff, 0xff};
  client.socket().WriteAll(frame, sizeof(frame));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.Receive(&payload));
  util::ByteReader in(payload);
  EXPECT_EQ(ResponseHeader::Decode(&in).status, Status::kInvalidArgument);

  // Unknown verb byte: answered kUnimplemented, connection survives.
  const std::uint8_t unknown_verb[] = {
      26, 0, 0, 0,              // frame length 26 (v4 header)
      99,                       // verb 99
      0, 0, 0, 0, 0, 0, 0, 0,   // session id
      0, 0, 0, 0,               // empty index name
      0, 0, 0, 0,               // no deadline
      0, 0, 0, 0, 0, 0, 0, 0,   // no trace id
      0};                       // no trace flags
  client.socket().WriteAll(unknown_verb, sizeof(unknown_verb));
  ASSERT_TRUE(client.Receive(&payload));
  util::ByteReader in2(payload);
  EXPECT_EQ(ResponseHeader::Decode(&in2).status, Status::kUnimplemented);

  // The same connection still serves well-formed requests.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetWireTest, AbruptDisconnectMidFrameLeavesServerServing) {
  Server server(BaseOptions(ScratchDir("abrupt")));
  {
    Client client("localhost", server.port());
    ASSERT_TRUE(client.OpenIndex("x", "btree").ok());
    // Announce a 100-byte frame, send 10 bytes, vanish.
    const std::uint8_t header[4] = {100, 0, 0, 0};
    client.socket().WriteAll(header, sizeof(header));
    const std::uint8_t partial[10] = {};
    client.socket().WriteAll(partial, sizeof(partial));
  }  // Destructor closes the socket mid-frame.
  // The handler thread must swallow the torn frame; new connections and
  // the hosted index are unaffected.
  Client fresh("localhost", server.port());
  EXPECT_TRUE(fresh.Ping().ok());
  EXPECT_TRUE(fresh.Stats("x").ok());
}

// --- Admission control ----------------------------------------------

TEST(NetAdmissionTest, TokenBucketRejectsBeyondBurst) {
  Server::Options options = BaseOptions(ScratchDir("ratelimit"));
  options.rate_limit_per_client = 1.0;  // 1 request/s...
  options.rate_limit_burst = 4;         // ...after a burst of 4.
  Server server(options);
  Client client("localhost", server.port());
  ASSERT_TRUE(client.OpenIndex("r", "btree").ok());  // Admin: unlimited.

  int ok = 0;
  int exhausted = 0;
  for (int i = 0; i < 32; ++i) {
    const Status status = client.PointLookup("r", {1}).status;
    if (status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(status, Status::kResourceExhausted);
      ++exhausted;
    }
  }
  // The burst admits a few; the rest must be fast rejections (32
  // blocking round-trips at 1 QPS would take half a minute).
  EXPECT_GE(ok, 4);
  EXPECT_GE(exhausted, 20);

  // Admin verbs are not rate limited: the control plane stays usable
  // while the data plane is throttled.
  EXPECT_TRUE(client.ListIndexes().ok());
}

TEST(NetAdmissionTest, ConcurrencyCapBasics) {
  ConcurrencyCap cap(2);
  ConcurrencyCap::Guard a(cap);
  ConcurrencyCap::Guard b(cap);
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(cap.in_flight(), 2u);
  {
    ConcurrencyCap::Guard c(cap);
    EXPECT_FALSE(c);  // Over the cap: rejected, not queued.
  }
  EXPECT_EQ(cap.in_flight(), 2u);  // A failed guard releases nothing.

  ConcurrencyCap uncapped(0);
  ConcurrencyCap::Guard d(uncapped);
  EXPECT_TRUE(d);
}

TEST(NetAdmissionTest, TokenBucketRefills) {
  TokenBucket bucket(1000.0, 2.0);
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_TRUE(bucket.TryAcquire());
  // Burst spent; at 1000/s a few ms restore a token.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool refilled = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (bucket.TryAcquire()) {
      refilled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(refilled);
}

/// Sends one well-formed request of `verb` for `index` on `client` and
/// returns the response header.
ResponseHeader SendVerb(Client& client, Verb verb, const std::string& index) {
  util::ByteWriter request = client.Request(verb, index);
  switch (verb) {
    case Verb::kPing:
      request.WriteU8(kProtocolVersion);
      break;
    case Verb::kOpenIndex:
      request.WriteString("btree");
      break;
    case Verb::kCreateSession:
      request.WriteU32(0);  // No imported floors.
      break;
    case Verb::kPointLookup:
      request.WritePodVector(std::vector<std::uint64_t>{1});
      break;
    case Verb::kRangeLookup:
      request.WritePodVector(
          std::vector<KeyRange<std::uint64_t>>{KeyRange<std::uint64_t>{1, 2}});
      break;
    case Verb::kUpdate:
      request.WritePodVector(std::vector<std::uint64_t>{1});
      request.WritePodVector(std::vector<std::uint32_t>{1});
      request.WritePodVector(std::vector<std::uint64_t>{});
      break;
    case Verb::kSubscribeWal:
      request.WriteU64(0);  // after_epoch
      request.WriteU32(0);  // max_waves
      request.WriteU32(0);  // wait_ms: answer at once
      break;
    case Verb::kFetchWalRange:
      request.WriteU64(0);  // after_epoch
      request.WriteU64(0);  // up_to_epoch
      request.WriteU32(0);  // max_waves
      break;
    default:
      break;  // No body.
  }
  client.Send(request);
  std::vector<std::uint8_t> payload;
  EXPECT_TRUE(client.Receive(&payload)) << VerbName(verb);
  util::ByteReader in(payload);
  return ResponseHeader::Decode(&in);
}

// Pins which verbs spend a rate-limit token: with the connection's
// bucket drained, exactly these answer kResourceExhausted.
TEST(NetAdmissionTest, EachVerbSpendsATokenOrNot) {
  Server::Options options = BaseOptions(ScratchDir("verb_tokens"));
  options.rate_limit_per_client = 0.001;  // No refill within the test.
  options.rate_limit_burst = 1;
  Server server(options);
  {
    Client setup("localhost", server.port());
    ASSERT_TRUE(setup.OpenIndex("t", "btree").ok());
  }
  Client client("localhost", server.port());
  // Drain the bucket's one token.
  ASSERT_EQ(SendVerb(client, Verb::kStats, "t").status, Status::kOk);

  const std::vector<Verb> limited = {
      Verb::kCreateSession, Verb::kPointLookup,  Verb::kRangeLookup,
      Verb::kUpdate,        Verb::kStats,        Verb::kCheckpoint,
      Verb::kSubscribeWal,  Verb::kFetchWalRange};
  for (std::uint8_t v = 0; v < kVerbCount; ++v) {
    const auto verb = static_cast<Verb>(v);
    const bool spends_token =
        std::find(limited.begin(), limited.end(), verb) != limited.end();
    const ResponseHeader response =
        SendVerb(client, verb, verb == Verb::kCloseIndex ? "nope" : "t");
    if (spends_token) {
      EXPECT_EQ(response.status, Status::kResourceExhausted)
          << VerbName(verb);
      EXPECT_NE(response.message.find("rate limit"), std::string::npos)
          << VerbName(verb) << ": " << response.message;
    } else {
      EXPECT_NE(response.status, Status::kResourceExhausted)
          << VerbName(verb) << ": " << response.message;
    }
  }
}

// Pins which verbs hold a concurrency slot, and of which class: with
// the one read slot and the one write slot both held, the read verbs
// and the write verbs are refused by name and every other verb serves.
TEST(NetAdmissionTest, OnlyDataVerbsHoldAConcurrencySlot) {
  Server::Options options = BaseOptions(ScratchDir("verb_slots"));
  options.max_concurrent_reads = 1;
  options.max_concurrent_writes = 1;
  Server server(options);
  {
    Client setup("localhost", server.port());
    ASSERT_TRUE(setup.OpenIndex("stalled", "btree").ok());
    ASSERT_TRUE(setup.OpenIndex("free", "btree").ok());
  }

  // Stall "stalled"'s dispatcher with an in-process checkpoint whose
  // writer waits for the release below; an update and a lookup queued
  // behind it then hold the write slot and the read slot.
  IndexRouter::Lease lease = server.router().Acquire("stalled");
  ASSERT_TRUE(static_cast<bool>(lease));
  auto& service = lease->service().service();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<std::uint64_t> stall = service.Checkpoint(
      [released](const api::Index<std::uint64_t>&, std::uint64_t) {
        released.wait();
      });
  const auto wait_for_pending = [&service](std::size_t target) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.pending() < target) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  ASSERT_TRUE(wait_for_pending(1));
  Client writer("localhost", server.port());
  util::ByteWriter update = writer.Request(Verb::kUpdate, "stalled");
  update.WritePodVector(std::vector<std::uint64_t>{5});
  update.WritePodVector(std::vector<std::uint32_t>{50});
  update.WritePodVector(std::vector<std::uint64_t>{});
  writer.Send(update);
  ASSERT_TRUE(wait_for_pending(2));
  Client reader("localhost", server.port());
  util::ByteWriter lookup = reader.Request(Verb::kPointLookup, "stalled");
  lookup.WritePodVector(std::vector<std::uint64_t>{5});
  reader.Send(lookup);
  ASSERT_TRUE(wait_for_pending(3));

  // list_indexes reads every index's stats, so it queues behind the
  // stall too -- having got that far proves it passed admission.
  Client lister("localhost", server.port());
  lister.Send(lister.Request(Verb::kListIndexes, ""));
  ASSERT_TRUE(wait_for_pending(4));

  Client probe("localhost", server.port());
  for (std::uint8_t v = 0; v < kVerbCount; ++v) {
    const auto verb = static_cast<Verb>(v);
    if (verb == Verb::kListIndexes) continue;  // Probed above.
    const ResponseHeader response =
        SendVerb(probe, verb, verb == Verb::kCloseIndex ? "nope" : "free");
    const bool read = verb == Verb::kPointLookup ||
                      verb == Verb::kRangeLookup || verb == Verb::kStats;
    const bool write = verb == Verb::kUpdate || verb == Verb::kCheckpoint;
    if (read || write) {
      EXPECT_EQ(response.status, Status::kResourceExhausted)
          << VerbName(verb);
      EXPECT_NE(response.message.find(read ? "read concurrency"
                                           : "write concurrency"),
                std::string::npos)
          << VerbName(verb) << ": " << response.message;
    } else {
      EXPECT_NE(response.status, Status::kResourceExhausted)
          << VerbName(verb) << ": " << response.message;
    }
  }

  release.set_value();
  EXPECT_EQ(stall.get(), 0u);
  std::vector<std::uint8_t> payload;
  for (Client* holder : {&writer, &reader, &lister}) {
    ASSERT_TRUE(holder->Receive(&payload));
    util::ByteReader in(payload);
    EXPECT_EQ(ResponseHeader::Decode(&in).status, Status::kOk);
  }
}

// --- Sessions -------------------------------------------------------

TEST(NetSessionTest, ReadYourWritesAcrossConnections) {
  Server server(BaseOptions(ScratchDir("ryw")));
  Client writer("localhost", server.port());
  ASSERT_TRUE(writer.OpenIndex("s", "cgrxu").ok());

  const Client::SessionReply session = writer.CreateSession();
  ASSERT_TRUE(session.ok());
  ASSERT_GT(session.session_id, 0u);

  const std::uint64_t epoch_before = writer.Stats("s").epoch;
  const Client::UpdateReply write = writer.Update("s", {42}, {420}, {});
  ASSERT_TRUE(write.ok());
  EXPECT_GT(write.epoch, epoch_before);  // Strictly newer epoch.

  // A second connection carrying the same session observes the write.
  Client reader("localhost", server.port());
  reader.UseSession(session.session_id);
  const Client::LookupReply read = reader.PointLookup("s", {42});
  ASSERT_TRUE(read.ok()) << read.message;
  EXPECT_GE(read.epoch, write.epoch);
  ASSERT_EQ(read.results.size(), 1u);
  EXPECT_EQ(read.results[0].match_count, 1u);
  EXPECT_EQ(read.results[0].row_id_sum, 420u);
}

TEST(NetSessionTest, ReadYourWritesUnderConcurrentWriters) {
  Server server(BaseOptions(ScratchDir("ryw_concurrent")));
  {
    Client setup("localhost", server.port());
    ASSERT_TRUE(setup.OpenIndex("c", "cgrxu").ok());
  }

  // Background writers churn epochs on unrelated keys the whole time.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&server, &stop, w] {
      Client client("localhost", server.port());
      std::uint64_t key = 1'000'000 + static_cast<std::uint64_t>(w);
      while (!stop.load(std::memory_order_relaxed)) {
        client.Update("c", {key}, {1}, {});
        key += 2;
      }
    });
  }

  // The session client writes over one connection and reads over
  // another; every read must observe its own last acknowledged write
  // at an epoch >= the ack, regardless of the concurrent churn.
  Client session_writer("localhost", server.port());
  const Client::SessionReply session = session_writer.CreateSession();
  ASSERT_TRUE(session.ok());
  Client session_reader("localhost", server.port());
  session_reader.UseSession(session.session_id);

  for (std::uint64_t i = 0; i < 25; ++i) {
    const std::uint64_t key = 10 + i;
    const Client::UpdateReply write =
        session_writer.Update("c", {key}, {static_cast<std::uint32_t>(key)},
                              {});
    ASSERT_TRUE(write.ok()) << write.message;
    const Client::LookupReply read = session_reader.PointLookup("c", {key});
    ASSERT_TRUE(read.ok()) << read.message;
    EXPECT_GE(read.epoch, write.epoch);
    ASSERT_EQ(read.results.size(), 1u);
    EXPECT_EQ(read.results[0].match_count, 1u) << "lost write at " << key;
    EXPECT_EQ(read.results[0].row_id_sum, key);
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

TEST(NetSessionTest, RegistryCapAndTtlEviction) {
  // A full table with nothing idle long enough rejects (returns 0)
  // instead of growing.
  SessionRegistry capped(2, std::chrono::milliseconds(60'000));
  const std::uint64_t a = capped.Create();
  const std::uint64_t b = capped.Create();
  ASSERT_GT(a, 0u);
  ASSERT_GT(b, 0u);
  EXPECT_EQ(capped.Create(), 0u);
  EXPECT_EQ(capped.size(), 2u);
  EXPECT_NE(capped.Find(a), nullptr);  // Rejection evicted nothing.

  // Once entries sit idle past the TTL, a full table evicts them and
  // admits again; the evicted id becomes unknown, never sessionless.
  SessionRegistry expiring(1, std::chrono::milliseconds(1));
  const std::uint64_t first = expiring.Create();
  ASSERT_GT(first, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const std::uint64_t second = expiring.Create();
  ASSERT_GT(second, first);  // Ids are never reused.
  EXPECT_EQ(expiring.Find(first), nullptr);
  EXPECT_NE(expiring.Find(second), nullptr);
  EXPECT_EQ(expiring.size(), 1u);
  EXPECT_EQ(expiring.evicted(), 1u);
}

TEST(NetSessionTest, SessionTableCapOverTheWire) {
  Server::Options options = BaseOptions(ScratchDir("session_cap"));
  options.max_sessions = 2;
  options.session_idle_ttl = std::chrono::milliseconds(250);
  Server server(options);
  Client client("localhost", server.port());

  const Client::SessionReply a = client.CreateSession();
  const Client::SessionReply b = client.CreateSession();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Client::SessionReply over = client.CreateSession();
  EXPECT_EQ(over.status, Status::kResourceExhausted);

  // Past the idle TTL the full table evicts and admits again, and a
  // read carrying the evicted id is rejected as unknown.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const Client::SessionReply readmitted = client.CreateSession();
  ASSERT_TRUE(readmitted.ok()) << readmitted.message;
  client.UseSession(a.session_id);
  const Client::LookupReply read = client.PointLookup("nosuch", {1});
  EXPECT_EQ(read.status, Status::kInvalidArgument);
  EXPECT_NE(read.message.find("session"), std::string::npos);
}

TEST(NetAdmissionTest, CreateSessionIsRateLimited) {
  Server::Options options = BaseOptions(ScratchDir("session_rate"));
  options.rate_limit_per_client = 1.0;
  options.rate_limit_burst = 4;
  Server server(options);
  Client client("localhost", server.port());

  // create_session allocates server memory, so it spends from the same
  // token bucket as the data verbs: the burst admits a few, the rest
  // are fast rejections.
  int ok = 0;
  int exhausted = 0;
  for (int i = 0; i < 32; ++i) {
    const Client::SessionReply reply = client.CreateSession();
    if (reply.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(reply.status, Status::kResourceExhausted);
      ++exhausted;
    }
  }
  EXPECT_GE(ok, 4);
  EXPECT_GE(exhausted, 20);
}

// --- Metrics --------------------------------------------------------

TEST(NetMetricsTest, PrometheusTextOverHttpAndInProcess) {
  Server server(BaseOptions(ScratchDir("metrics")));
  Client client("localhost", server.port());
  ASSERT_TRUE(client.OpenIndex("m", "cgrxu").ok());
  ASSERT_TRUE(client.Update("m", {1, 2}, {1, 2}, {}).ok());
  ASSERT_TRUE(client.PointLookup("m", {1}).ok());

  // In-process accessor: per-index epoch and queue-depth gauges, verb
  // counters, scheduler counters.
  const std::string text = server.MetricsText();
  EXPECT_NE(text.find("# TYPE cgrx_index_epoch gauge"), std::string::npos);
  EXPECT_NE(text.find("cgrx_index_epoch{index=\"m\"} 1"), std::string::npos);
  EXPECT_NE(text.find("cgrx_index_queue_depth{index=\"m\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cgrx_requests_total{verb=\"update\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cgrx_scheduler_threads"), std::string::npos);

  // Every non-comment line must parse as `name[{label}] value`.
  std::size_t samples = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
    ++samples;
  }
  EXPECT_GT(samples, 20u);

  // The HTTP mapping serves the same text on the RPC port.
  Socket http = Socket::Connect("localhost", server.port());
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  http.WriteAll(request.data(), request.size());
  std::string response;
  char c;
  while (http.ReadFull(&c, 1)) response.push_back(c);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("cgrx_index_epoch{index=\"m\"}"),
            std::string::npos);

  // Health endpoint and 404 mapping.
  Socket health = Socket::Connect("localhost", server.port());
  const std::string health_request = "GET /healthz HTTP/1.1\r\n\r\n";
  health.WriteAll(health_request.data(), health_request.size());
  std::string health_response;
  while (health.ReadFull(&c, 1)) health_response.push_back(c);
  EXPECT_NE(health_response.find("200 OK"), std::string::npos);

  Socket missing = Socket::Connect("localhost", server.port());
  const std::string missing_request = "GET /nope HTTP/1.1\r\n\r\n";
  missing.WriteAll(missing_request.data(), missing_request.size());
  std::string missing_response;
  while (missing.ReadFull(&c, 1)) missing_response.push_back(c);
  EXPECT_NE(missing_response.find("404"), std::string::npos);
}

// --- Router (in-process) --------------------------------------------

TEST(NetRouterTest, ValidNames) {
  EXPECT_TRUE(IndexRouter::ValidName("orders"));
  EXPECT_TRUE(IndexRouter::ValidName("a-b_c.d42"));
  EXPECT_FALSE(IndexRouter::ValidName(""));
  EXPECT_FALSE(IndexRouter::ValidName(".hidden"));
  EXPECT_FALSE(IndexRouter::ValidName("a/b"));
  EXPECT_FALSE(IndexRouter::ValidName("a b"));
  EXPECT_FALSE(IndexRouter::ValidName(std::string(65, 'a')));
}

TEST(NetRouterTest, CloseDrainsInFlightLeases) {
  IndexRouter router({ScratchDir("router_drain")});
  std::string message;
  ASSERT_EQ(router.Open("v", "btree", &message), Status::kOk) << message;

  std::atomic<bool> lease_taken{false};
  std::atomic<bool> lease_released{false};
  std::thread holder([&] {
    IndexRouter::Lease lease = router.Acquire("v");
    ASSERT_TRUE(static_cast<bool>(lease));
    lease_taken.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    lease_released.store(true);
  });
  while (!lease_taken.load()) std::this_thread::yield();

  // Close must wait for the admitted lease before shutting the service.
  std::uint64_t epoch = 0;
  ASSERT_EQ(router.Close("v", &message, &epoch), Status::kOk);
  EXPECT_TRUE(lease_released.load());
  holder.join();
  EXPECT_FALSE(static_cast<bool>(router.Acquire("v")));
}

// --- Deadlines ------------------------------------------------------

TEST(NetDeadlineTest, DeadlineAgainstStalledServiceNeverHangsOrExecutes) {
  Server server(BaseOptions(ScratchDir("deadline")));
  Client stall("localhost", server.port());
  ASSERT_TRUE(stall.OpenIndex("dl", "cgrxu").ok());

  // Stall the single dispatcher with an in-process checkpoint whose
  // writer waits for the release below, and pipeline a bulk update
  // behind it: everything after the update stays queued until then.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<std::uint64_t> checkpoint;
  {
    IndexRouter::Lease lease = server.router().Acquire("dl");
    ASSERT_TRUE(static_cast<bool>(lease));
    auto& service = lease->service().service();
    checkpoint = service.Checkpoint(
        [released](const api::Index<std::uint64_t>&, std::uint64_t) {
          released.wait();
        });
    std::vector<std::uint64_t> keys(50'000);
    std::vector<std::uint32_t> rows(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = i * 3 + 1;
      rows[i] = static_cast<std::uint32_t>(i);
    }
    util::ByteWriter update = stall.Request(Verb::kUpdate, "dl");
    update.WritePodVector(keys);
    update.WritePodVector(rows);
    update.WritePodVector(std::vector<std::uint64_t>{});
    stall.Send(update);
    // Wait (in-process) until the wave is actually submitted.
    while (service.pending() < 2) std::this_thread::yield();
  }

  // Second connection: a 10 ms-deadline lookup, framed by hand so only
  // the SERVER enforces the deadline (a client-side recv timeout would
  // race the server's answer).
  Client client("localhost", server.port());
  util::ByteWriter lookup;
  RequestHeader header;
  header.verb = Verb::kPointLookup;
  header.index = "dl";
  header.deadline_ms = 10;
  header.Encode(&lookup);
  lookup.WritePodVector(std::vector<std::uint64_t>{1});
  const auto sent = std::chrono::steady_clock::now();
  client.Send(lookup);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.Receive(&payload));
  const auto answered = std::chrono::steady_clock::now();
  util::ByteReader in(payload);
  const ResponseHeader response = ResponseHeader::Decode(&in);
  EXPECT_EQ(response.status, Status::kDeadlineExceeded) << response.message;

  // Never hangs: answered in ~deadline time, not stall time.
  EXPECT_LT(answered - sent, std::chrono::seconds(2));
  // Let the stall and the wave finish; the lookup answer must predate
  // the wave's completion (i.e. the deadline answer did not queue
  // behind the wave).
  release.set_value();
  EXPECT_EQ(checkpoint.get(), 0u);
  std::vector<std::uint8_t> update_payload;
  ASSERT_TRUE(stall.Receive(&update_payload));
  const auto wave_done = std::chrono::steady_clock::now();
  util::ByteReader update_in(update_payload);
  ASSERT_EQ(ResponseHeader::Decode(&update_in).status, Status::kOk);
  EXPECT_LT(answered, wave_done);

  // Never executed: the dispatcher dropped the expired ticket, and the
  // deadline outcome is visible in /metrics.
  const std::string text = server.MetricsText();
  EXPECT_NE(text.find("cgrx_index_deadline_dropped_total{index=\"dl\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cgrx_deadline_exceeded_total{stage=\"await\"} 1"),
            std::string::npos)
      << text;

  // The connection that took the deadline answer is still healthy.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetDeadlineTest, ClientCallDeadlineAgainstSilentServer) {
  // A "server" that accepts and then never answers: without a recv
  // timeout the client would block forever.
  Listener listener(0);
  std::thread sink([&listener] {
    try {
      Socket accepted = listener.Accept();
      char c;
      while (accepted.ReadFull(&c, 1)) {
      }
    } catch (...) {
    }
  });
  {
    Client::Options options;
    options.call_deadline = std::chrono::milliseconds(100);
    Client client("localhost", listener.port(), options);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(client.Ping(), TimeoutError);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
  }  // Client close gives the sink its EOF.
  listener.Shutdown();
  sink.join();
}

// --- Protocol version negotiation -----------------------------------

TEST(NetProtocolTest, PingNegotiatesProtocolVersion) {
  Server server(BaseOptions(ScratchDir("version")));
  Client client("localhost", server.port());

  const Client::PingReply reply = client.Ping();
  ASSERT_TRUE(reply.ok()) << reply.message;
  EXPECT_EQ(reply.server_version, kProtocolVersion);

  // A mismatched version byte is refused naming both versions, so the
  // operator knows which side to upgrade.
  util::ByteWriter mismatched = client.Request(Verb::kPing, "");
  mismatched.WriteU8(99);
  client.Send(mismatched);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.Receive(&payload));
  util::ByteReader in(payload);
  const ResponseHeader response = ResponseHeader::Decode(&in);
  EXPECT_EQ(response.status, Status::kFailedPrecondition);
  EXPECT_NE(response.message.find("99"), std::string::npos);
  EXPECT_NE(response.message.find(std::to_string(kProtocolVersion)),
            std::string::npos);

  // A ping without its version byte is a malformed request.
  client.Send(client.Request(Verb::kPing, ""));
  ASSERT_TRUE(client.Receive(&payload));
  util::ByteReader empty(payload);
  EXPECT_EQ(ResponseHeader::Decode(&empty).status, Status::kInvalidArgument);

  // The connection survives the refusals.
  EXPECT_TRUE(client.Ping().ok());
}

// --- Client retry/backoff -------------------------------------------

TEST(NetRetryTest, RetriesResourceExhaustedAnswersWithBackoff) {
  Server::Options options = BaseOptions(ScratchDir("retry_rate"));
  options.rate_limit_per_client = 50.0;  // Token every 20 ms...
  options.rate_limit_burst = 1;          // ...after a burst of one.
  Server server(options);
  {
    Client setup("localhost", server.port());
    ASSERT_TRUE(setup.OpenIndex("rr", "btree").ok());
    ASSERT_TRUE(setup.Update("rr", {1}, {10}, {}).ok());
  }

  // Without retry, back-to-back lookups hit the rate limit.
  Client bare("localhost", server.port());
  bool saw_exhausted = false;
  for (int i = 0; i < 8 && !saw_exhausted; ++i) {
    saw_exhausted =
        bare.PointLookup("rr", {1}).status == Status::kResourceExhausted;
  }
  EXPECT_TRUE(saw_exhausted);

  // With retry, every call eventually lands: kResourceExhausted means
  // "refused without executing", so the client backs off and re-sends.
  Client::Options retrying;
  retrying.retry.max_attempts = 10;
  retrying.retry.initial_backoff = std::chrono::milliseconds(10);
  retrying.retry.max_backoff = std::chrono::milliseconds(100);
  retrying.retry.seed = 42;
  Client client("localhost", server.port(), retrying);
  for (int i = 0; i < 5; ++i) {
    const Client::LookupReply reply = client.PointLookup("rr", {1});
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.message;
    EXPECT_EQ(reply.results[0].row_id_sum, 10u);
  }
}

TEST(NetRetryTest, TransportErrorRetriesOnlyIdempotentVerbs) {
  Server server(BaseOptions(ScratchDir("retry_transport")));
  {
    Client setup("localhost", server.port());
    ASSERT_TRUE(setup.OpenIndex("rt", "btree").ok());
    ASSERT_TRUE(setup.Update("rt", {1}, {10}, {}).ok());
  }

  Client::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = std::chrono::milliseconds(1);
  options.retry.seed = 7;
  Client client("localhost", server.port(), options);
  ASSERT_TRUE(client.PointLookup("rt", {1}).ok());

  // Break the connection under the client's feet: an idempotent verb
  // reconnects and succeeds transparently.
  client.socket().Shutdown();
  const Client::LookupReply read = client.PointLookup("rt", {1});
  ASSERT_TRUE(read.ok()) << read.message;
  EXPECT_EQ(read.results[0].row_id_sum, 10u);

  // A non-idempotent update must NOT be auto-retried: the client
  // cannot know whether the torn call executed.
  client.socket().Shutdown();
  EXPECT_THROW(client.Update("rt", {2}, {20}, {}), Error);

  // The poisoned connection heals on the next explicit call.
  const Client::UpdateReply update = client.Update("rt", {2}, {20}, {});
  ASSERT_TRUE(update.ok()) << update.message;
}

}  // namespace
}  // namespace cgrx::net
