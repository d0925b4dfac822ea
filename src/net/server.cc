#include "src/net/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/api/index.h"
#include "src/net/metrics.h"
#include "src/replication/changefeed.h"
#include "src/replication/wal_shipper.h"
#include "src/util/fault_injector.h"

namespace cgrx::net {

namespace {

using OpClass = api::IndexService<IndexRouter::Key>::OpClass;

/// The concurrency slot a request holds until it is answered.
enum class Slot : std::uint8_t { kNone, kRead, kWrite };

/// What admission one verb pays. Dispatch applies a row in this order,
/// cheapest checks first; each refusal answers in microseconds instead
/// of queueing the request anywhere.
struct Admission {
  /// Spends a token from the connection's bucket. Besides the data
  /// verbs, create_session (it allocates server memory) and the
  /// replication fetches (they read segment files off disk) pay too.
  bool token;
  /// Only data verbs hold a slot: open_index may run for the length of
  /// a WAL replay, and a replication long poll may park for seconds,
  /// without eating read capacity.
  Slot slot;
  /// Names an index, which must be open: otherwise kNotFound.
  bool lease;
  /// Lookups and updates: the op class whose estimated queue wait must
  /// fit the request's remaining deadline before it is submitted.
  std::optional<OpClass> estimate;
};

/// One row per verb, in Verb order.
constexpr Admission kAdmission[] = {
    {false, Slot::kNone, false, std::nullopt},         // ping
    {false, Slot::kNone, false, std::nullopt},         // open_index
    {false, Slot::kNone, false, std::nullopt},         // close_index
    {false, Slot::kNone, false, std::nullopt},         // list_indexes
    {true, Slot::kNone, false, std::nullopt},          // create_session
    {true, Slot::kRead, true, OpClass::kPointLookup},  // point_lookup
    {true, Slot::kRead, true, OpClass::kRangeLookup},  // range_lookup
    {true, Slot::kWrite, true, OpClass::kUpdate},      // update
    {true, Slot::kRead, true, std::nullopt},           // stats
    {true, Slot::kWrite, true, std::nullopt},          // checkpoint
    {true, Slot::kNone, true, std::nullopt},           // subscribe_wal
    {true, Slot::kNone, true, std::nullopt},           // fetch_wal_range
    {false, Slot::kNone, true, std::nullopt},          // replication_status
};
static_assert(std::size(kAdmission) == kVerbCount, "one row per verb");

/// The one shape of every kDeadlineExceeded message.
std::string DeadlineMessage(std::uint32_t deadline_ms,
                            const std::string& what) {
  return "deadline of " + std::to_string(deadline_ms) + "ms " + what;
}

std::uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      listener_(options_.port),
      router_(IndexRouter::Options{options_.root, options_.policy,
                                   options_.service_queue_limit,
                                   options_.retain_wal_epochs}),
      sessions_(options_.max_sessions, options_.session_idle_ttl),
      read_cap_(options_.max_concurrent_reads),
      write_cap_(options_.max_concurrent_writes),
      traces_(util::TraceBuffer::Options{options_.trace_buffer_capacity,
                                         options_.slow_trace_us}) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  listener_.Shutdown();  // Wakes the blocked Accept().
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) conn->socket.Shutdown();
  }
  // No lock while joining: handlers never touch connections_.
  for (const auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
  listener_.Close();
  router_.CloseAll();
}

void Server::AcceptLoop() {
  for (;;) {
    Socket socket;
    try {
      socket = listener_.Accept();
    } catch (const Error&) {
      // Unexpected accept() failure: the listener fd is still live, so
      // keep serving -- a dead accept loop is a silently dead server.
      if (stopping_.load(std::memory_order_acquire)) return;
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (!socket.valid() || stopping_.load(std::memory_order_acquire)) {
      return;  // Shutdown() woke us.
    }
    ReapConnections();
    if (options_.max_connections > 0 &&
        active_connections_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      continue;  // Socket closes: connection refused by cap.
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Count the connection here, not in the handler thread: this loop
    // is the only incrementer, so the cap check above can never be
    // overtaken by a burst of accepts racing slow handler startups.
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>(std::move(socket),
                                             options_.rate_limit_per_client,
                                             options_.rate_limit_burst);
    Connection* raw = conn.get();
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      HandleConnection(raw);
      raw->finished.store(true, std::memory_order_release);
    });
  }
}

void Server::ReapConnections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::HandleConnection(Connection* conn) {
  // active_connections_ was incremented by AcceptLoop; this thread
  // only decrements (at the bottom).
  try {
    // Sniff the first 4 bytes: an HTTP method means the read-only
    // /metrics mapping; anything else is the first frame's length.
    std::array<char, 4> head{};
    if (conn->socket.ReadFull(head.data(), head.size())) {
      bytes_read_.fetch_add(4, std::memory_order_relaxed);
      const bool http = std::memcmp(head.data(), "GET ", 4) == 0 ||
                        std::memcmp(head.data(), "HEAD", 4) == 0 ||
                        std::memcmp(head.data(), "POST", 4) == 0;
      if (http) {
        HandleHttp(conn, head);
      } else {
        std::uint32_t frame_len;
        std::memcpy(&frame_len, head.data(), 4);  // LE host assumed
                                                  // (see util/serial.h).
        for (;;) {
          if (frame_len > options_.max_frame_bytes) {
            // The length cannot be trusted enough to skip the payload;
            // answer and close.
            malformed_frames_.fetch_add(1, std::memory_order_relaxed);
            util::ByteWriter out;
            WriteError(&out, Status::kInvalidArgument,
                       "frame of " + std::to_string(frame_len) +
                           " bytes exceeds the server limit of " +
                           std::to_string(options_.max_frame_bytes));
            WriteFrame(conn, out);
            break;
          }
          std::vector<std::uint8_t> payload(frame_len);
          if (frame_len > 0 &&
              !conn->socket.ReadFull(payload.data(), payload.size())) {
            break;  // EOF at a frame boundary after the header: torn
                    // request, drop silently (nothing to answer to).
          }
          bytes_read_.fetch_add(frame_len, std::memory_order_relaxed);
          if (!HandleFrame(conn, payload)) break;
          std::array<std::uint8_t, 4> next{};
          if (!conn->socket.ReadFull(next.data(), next.size())) {
            break;  // Clean EOF between frames.
          }
          bytes_read_.fetch_add(4, std::memory_order_relaxed);
          std::memcpy(&frame_len, next.data(), 4);
        }
      }
    }
  } catch (const Error&) {
    // Abrupt disconnect (mid-frame EOF, reset): drop the connection;
    // per-connection state dies with it and the indexes are untouched
    // beyond whatever tickets already resolved.
  } catch (const std::exception&) {
    // Defensive: no handler escape may take the server down.
  }
  // Half-close so the peer sees EOF now; the fd itself stays alive
  // until the accept loop (or Stop) reaps the Connection, which keeps
  // this thread-safe against a concurrent Stop() calling Shutdown too.
  conn->socket.Shutdown();
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

bool Server::HandleFrame(Connection* conn,
                         const std::vector<std::uint8_t>& payload) {
  // The request's clock starts at the first header byte: server_micros
  // on the wire, the per-verb latency histogram, and a trace's total
  // all measure from here.
  const auto frame_start = std::chrono::steady_clock::now();
  util::ByteWriter out;
  std::shared_ptr<util::Trace> trace;
  std::size_t verb_index = kVerbCount;  // kVerbCount = undecodable.
  try {
    util::ByteReader reader(payload.data(), payload.size());
    const RequestHeader header = RequestHeader::Decode(&reader);
    if (static_cast<std::uint8_t>(header.verb) >= kVerbCount) {
      WriteError(&out, Status::kUnimplemented,
                 "unknown verb " +
                     std::to_string(static_cast<unsigned>(header.verb)));
    } else {
      verb_index = static_cast<std::size_t>(header.verb);
      requests_total_[verb_index].fetch_add(1, std::memory_order_relaxed);
      trace = MaybeStartTrace(header);
      // The budget anchor: deadline_ms is relative on the wire (client
      // clocks never meet the server's), so decode time is the one
      // honest zero. Every later stage (session epoch wait, ticket
      // await, dispatcher drop) compares against this absolute point.
      util::RequestContext context =
          header.deadline_ms > 0
              ? util::RequestContext::WithDeadline(
                    std::chrono::milliseconds(header.deadline_ms))
              : util::RequestContext();
      context.set_trace(trace);
      const std::uint64_t decode_us = ElapsedUs(frame_start);
      util::StageHistogram(util::TraceStage::kDecode).Record(decode_us);
      if (trace != nullptr) {
        trace->AddSpan(util::TraceStage::kDecode, frame_start, decode_us);
      }
      Dispatch(conn, header, context, &reader, &out);
    }
  } catch (const util::SerialError& e) {
    // Malformed payload: the frame was consumed whole, so the stream
    // is still in sync -- answer and keep the connection.
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    out = util::ByteWriter();
    WriteError(&out, Status::kInvalidArgument,
               std::string("malformed request: ") + e.what());
  } catch (const api::UnsupportedOperationError& e) {
    out = util::ByteWriter();
    WriteError(&out, Status::kFailedPrecondition, e.what());
  } catch (const util::DeadlineExceededError& e) {
    // The service dropped the ticket (or refused the queue wait)
    // because the request's budget ran out before execution.
    deadline_admission_.fetch_add(1, std::memory_order_relaxed);
    out = util::ByteWriter();
    WriteError(&out, Status::kDeadlineExceeded, e.what());
  } catch (const util::CancelledError& e) {
    out = util::ByteWriter();
    WriteError(&out, Status::kUnavailable, e.what());
  } catch (const std::invalid_argument& e) {
    out = util::ByteWriter();
    WriteError(&out, Status::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    out = util::ByteWriter();
    WriteError(&out, Status::kInternal, e.what());
  }
  // Every response payload -- success or error -- starts with the
  // ResponseHeader, whose server_micros placeholder sits at a fixed
  // offset. Patch the real figure in now that the payload is built.
  const std::uint64_t server_us = ElapsedUs(frame_start);
  if (out.size() >= kServerMicrosOffset + 8) {
    out.PatchU64(kServerMicrosOffset, server_us);
  }
  if (verb_index < kVerbCount) request_hist_[verb_index].Record(server_us);
  {
    util::StageTimer write_timer(util::TraceStage::kResponseWrite,
                                 trace.get());
    WriteFrame(conn, out);
  }
  if (trace != nullptr) {
    const std::uint8_t status_byte = out.size() > 0 ? out.bytes()[0] : 0;
    trace->Finish(status_byte, ElapsedUs(frame_start));
    traces_.Insert(std::move(trace));
  }
  return true;
}

std::shared_ptr<util::Trace> Server::MaybeStartTrace(
    const RequestHeader& header) {
  const bool client_flagged = (header.trace_flags & kTraceFlagSampled) != 0;
  bool server_sampled = false;
  if (options_.trace_sample_every > 0) {
    const std::uint64_t tick =
        trace_tick_.fetch_add(1, std::memory_order_relaxed);
    server_sampled = tick % options_.trace_sample_every == 0;
  }
  if (!client_flagged && !server_sampled) return nullptr;
  // A client-supplied id is echoed verbatim so both sides of the wire
  // agree on the request's name; otherwise the server assigns one.
  const std::uint64_t id =
      header.trace_id != 0
          ? header.trace_id
          : next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  traces_started_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<util::Trace>(id, VerbName(header.verb),
                                       header.index);
}

void Server::Dispatch(Connection* conn, const RequestHeader& header,
                      util::RequestContext& context, util::ByteReader* body,
                      util::ByteWriter* out) {
  util::Trace* const trace = context.trace().get();
  const auto admission_start = std::chrono::steady_clock::now();
  const Admission& admission =
      kAdmission[static_cast<std::size_t>(header.verb)];
  if (admission.token && !conn->bucket.TryAcquire()) {
    rejected_rate_limit_.fetch_add(1, std::memory_order_relaxed);
    WriteError(out, Status::kResourceExhausted,
               "client rate limit exceeded");
    return;
  }
  std::optional<ConcurrencyCap::Guard> slot;
  if (admission.slot != Slot::kNone) {
    const bool write = admission.slot == Slot::kWrite;
    slot.emplace(write ? write_cap_ : read_cap_);
    if (!*slot) {
      rejected_concurrency_.fetch_add(1, std::memory_order_relaxed);
      WriteError(out, Status::kResourceExhausted,
                 write ? "server write concurrency limit reached"
                       : "server read concurrency limit reached");
      return;
    }
  }
  std::shared_ptr<Session> session;
  if (header.session_id != 0) {
    session = sessions_.Find(header.session_id);
    if (session == nullptr) {
      WriteError(out, Status::kInvalidArgument,
                 "unknown session id " + std::to_string(header.session_id));
      return;
    }
  }
  const IndexRouter::Lease lease = admission.lease
                                       ? router_.Acquire(header.index)
                                       : IndexRouter::Lease();
  if (admission.lease && !lease) {
    WriteError(out, Status::kNotFound, "unknown index: " + header.index);
    return;
  }
  if (admission.estimate && context.has_deadline()) {
    // Deadline-aware admission: if the queue ahead is already estimated
    // to outlast the remaining budget, say so now instead of submitting
    // work destined to be dropped. The estimate is the service's own,
    // off its live per-class queue-wait and execute histograms.
    const std::uint64_t wait_us =
        lease->service().service().EstimatedQueueWaitUs(*admission.estimate);
    const auto remaining_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            context.remaining())
            .count());
    if (wait_us > remaining_us) {
      deadline_queue_estimate_.fetch_add(1, std::memory_order_relaxed);
      WriteError(out, Status::kDeadlineExceeded,
                 DeadlineMessage(header.deadline_ms,
                                 "cannot cover the estimated queue wait of " +
                                     std::to_string(wait_us / 1000) + "ms"));
      return;
    }
  }

  // Admission passed (rejections above return before recording -- the
  // stage measures the toll every served request paid, not the cost of
  // turning one away).
  {
    const std::uint64_t admission_us = ElapsedUs(admission_start);
    util::StageHistogram(util::TraceStage::kAdmission).Record(admission_us);
    if (trace != nullptr) {
      trace->AddSpan(util::TraceStage::kAdmission, admission_start,
                     admission_us);
    }
  }

  switch (header.verb) {
    case Verb::kPing: {
      // A client speaking another protocol version is refused by name,
      // so the operator reading the error knows which side to upgrade.
      const std::uint8_t client_version = body->ReadU8();
      if (client_version != kProtocolVersion) {
        WriteError(out, Status::kFailedPrecondition,
                   "client speaks protocol version " +
                       std::to_string(client_version) +
                       ", server speaks " +
                       std::to_string(kProtocolVersion));
        return;
      }
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteU8(kProtocolVersion);
      out->WriteString("cgrx-serve/" + std::to_string(kProtocolVersion) +
                       " indexes=" + std::to_string(router_.Names().size()));
      return;
    }
    case Verb::kCreateSession: {
      // Imported write floors, the cross-node read-your-writes handoff:
      // a client that wrote {index, epoch} through the primary opens a
      // session here (on a replica) whose reads wait until that epoch
      // has been applied locally. Decode fully before allocating the
      // session.
      std::vector<std::pair<std::string, std::uint64_t>> floors;
      const std::uint32_t count = body->ReadU32();
      for (std::uint32_t i = 0; i < count; ++i) {
        std::string index = body->ReadString();
        const std::uint64_t epoch = body->ReadU64();
        floors.emplace_back(std::move(index), epoch);
      }
      const std::uint64_t id = sessions_.Create();
      if (id == 0) {
        rejected_sessions_.fetch_add(1, std::memory_order_relaxed);
        WriteError(out, Status::kResourceExhausted,
                   "session table full (" +
                       std::to_string(options_.max_sessions) +
                       " live sessions)");
        return;
      }
      if (!floors.empty()) {
        const std::shared_ptr<Session> created = sessions_.Find(id);
        if (created != nullptr) {
          for (const auto& [index, epoch] : floors) {
            created->RecordWrite(index, epoch);
          }
        }
      }
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteU64(id);
      return;
    }
    case Verb::kOpenIndex: {
      const std::string backend = body->ReadString();
      std::string message;
      const Status status = router_.Open(header.index, backend, &message);
      if (status != Status::kOk) {
        WriteError(out, status, message);
        return;
      }
      const std::optional<IndexInfo> info = router_.Describe(header.index);
      if (!info) {
        WriteError(out, Status::kUnavailable,
                   "index closed during open: " + header.index);
        return;
      }
      ResponseHeader{Status::kOk, message}.Encode(out);
      out->WriteU64(info->epoch);
      out->WriteU64(info->entries);
      return;
    }
    case Verb::kCloseIndex: {
      std::string message;
      std::uint64_t epoch = 0;
      const Status status = router_.Close(header.index, &message, &epoch);
      if (status != Status::kOk) {
        WriteError(out, status, message);
        return;
      }
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteU64(epoch);
      return;
    }
    case Verb::kListIndexes: {
      const std::vector<IndexInfo> infos = router_.List();
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteU32(static_cast<std::uint32_t>(infos.size()));
      for (const IndexInfo& info : infos) {
        out->WriteString(info.name);
        out->WriteU64(info.epoch);
        out->WriteU64(info.entries);
      }
      return;
    }
    case Verb::kPointLookup:
    case Verb::kRangeLookup: {
      // Decode fully before dispatch so a malformed body never leaves
      // a half-written response.
      std::vector<std::uint64_t> keys;
      std::vector<core::KeyRange<std::uint64_t>> ranges;
      if (header.verb == Verb::kPointLookup) {
        keys = body->ReadPodVector<std::uint64_t>();
      } else {
        ranges = body->ReadPodVector<core::KeyRange<std::uint64_t>>();
      }
      if (session != nullptr) {
        // Read-your-writes: hold the read until the service reaches
        // the session's last acknowledged write epoch on this index.
        // A request deadline caps the wait; the timeout's cause
        // (deadline vs. lagging service) picks the status.
        const std::uint64_t floor = session->WriteFloor(header.index);
        auto wait = options_.session_wait_timeout;
        if (context.has_deadline()) {
          wait = std::min(
              wait, std::chrono::duration_cast<std::chrono::milliseconds>(
                        context.remaining()));
        }
        if (floor > 0) {
          util::StageTimer epoch_timer(util::TraceStage::kEpochWait, trace);
          const bool reached =
              lease->service().service().WaitForEpoch(floor, wait);
          epoch_timer.Stop();
          if (!reached) {
            if (context.done()) {
              deadline_epoch_wait_.fetch_add(1, std::memory_order_relaxed);
              WriteError(out, Status::kDeadlineExceeded,
                         DeadlineMessage(
                             header.deadline_ms,
                             "exceeded waiting for session write epoch " +
                                 std::to_string(floor) + " on " +
                                 header.index));
            } else {
              WriteError(out, Status::kUnavailable,
                         "session write epoch " + std::to_string(floor) +
                             " not reached on " + header.index);
            }
            return;
          }
        }
      }
      auto ticket =
          header.verb == Verb::kPointLookup
              ? lease->service().SubmitPointLookups(std::move(keys), context)
              : lease->service().SubmitRangeLookups(std::move(ranges),
                                                    context);
      if (!AwaitTicket(ticket, context, header.deadline_ms, out)) return;
      auto result = ticket.get();  // Throws -> HandleFrame's catches.
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteU64(result.epoch);
      out->WritePodVector(result.results);
      return;
    }
    case Verb::kUpdate: {
      std::vector<std::uint64_t> insert_keys =
          body->ReadPodVector<std::uint64_t>();
      std::vector<std::uint32_t> insert_rows =
          body->ReadPodVector<std::uint32_t>();
      std::vector<std::uint64_t> erase_keys =
          body->ReadPodVector<std::uint64_t>();
      auto ticket = lease->service().SubmitUpdate(std::move(insert_keys),
                                                  std::move(insert_rows),
                                                  std::move(erase_keys),
                                                  context);
      if (!AwaitTicket(ticket, context, header.deadline_ms, out)) return;
      const auto result = ticket.get();
      if (session != nullptr) {
        // The epoch this ack carries is the session's new read floor.
        session->RecordWrite(header.index, result.epoch);
      }
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteU64(result.epoch);
      out->WriteU64(result.entries);
      return;
    }
    case Verb::kStats: {
      const api::IndexStats stats = lease->service().Stats();
      auto& service = lease->service().service();
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteU64(service.epoch());
      out->WriteU64(stats.entries);
      out->WriteU64(stats.memory_bytes);
      out->WriteU64(stats.rays_fired);
      out->WriteU64(stats.buckets_probed);
      out->WriteU64(stats.filter_rejections);
      out->WriteU64(stats.update_buckets_swept);
      out->WriteU64(service.queue_depth());
      out->WriteU64(service.pending());
      return;
    }
    case Verb::kCheckpoint: {
      auto ticket = lease->service().Checkpoint(context);
      if (!AwaitTicket(ticket, context, header.deadline_ms, out)) return;
      const std::uint64_t epoch = ticket.get();
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteU64(epoch);
      return;
    }
    case Verb::kSubscribeWal:
    case Verb::kFetchWalRange: {
      // Replication shipping: decode the cursor, optionally long-poll
      // for the next wave, then collect committed WAL records straight
      // off disk (the shipper shares no mutable state with the
      // dispatcher).
      const std::uint64_t after_epoch = body->ReadU64();
      std::uint64_t up_to_epoch = 0;
      std::uint32_t max_waves = 0;
      std::uint32_t wait_ms = 0;
      if (header.verb == Verb::kSubscribeWal) {
        max_waves = body->ReadU32();
        wait_ms = body->ReadU32();
      } else {
        up_to_epoch = body->ReadU64();
        max_waves = body->ReadU32();
      }
      if (util::FaultPoint("repl.stream_reset")) {
        // Chaos hook: refuse as if the stream tore mid-ship. The
        // follower must treat this exactly like a transport reset --
        // back off and re-fetch from its cursor.
        WriteError(out, Status::kUnavailable,
                   "injected replication stream reset");
        return;
      }
      auto& service = lease->service().service();
      if (header.verb == Verb::kSubscribeWal && wait_ms > 0 &&
          service.epoch() <= after_epoch) {
        // Long poll: hold an up-to-date cursor open until the next
        // wave completes, the server-side cap, or the request's own
        // deadline -- whichever is first. The 1:1 frame pairing is
        // preserved; a subscription is a client loop of these.
        auto wait = std::chrono::milliseconds(
            std::min<std::uint32_t>(wait_ms, 10'000));
        if (context.has_deadline()) {
          wait = std::min(
              wait, std::chrono::duration_cast<std::chrono::milliseconds>(
                        context.remaining()));
        }
        service.WaitForEpoch(after_epoch + 1, wait);
      }
      const std::uint64_t head = service.epoch();
      replication::WalShipper::Limits limits;
      if (max_waves > 0) {
        limits.max_waves = std::min<std::uint32_t>(max_waves, 1024);
      }
      const std::uint64_t up_to =
          (up_to_epoch == 0 || up_to_epoch > head) ? head : up_to_epoch;
      replication::WalShipper shipper(lease->service().store().directory());
      replication::ChangeBatch batch;
      try {
        batch = shipper.Collect(after_epoch, up_to, limits);
      } catch (const replication::HistoryTruncatedError& e) {
        WriteError(out, Status::kFailedPrecondition, e.what());
        return;
      }
      // Report the live head even when the caller capped up_to below
      // it: followers read their lag off this field.
      batch.head_epoch = head;
      std::uint64_t shipped_bytes = 0;
      for (const replication::Change& change : batch.changes) {
        shipped_bytes += change.byte_size();
      }
      lease->AddBytesShipped(shipped_bytes);
      ResponseHeader{Status::kOk, ""}.Encode(out);
      replication::EncodeChangeBatch(out, batch);
      return;
    }
    case Verb::kReplicationStatus: {
      auto& hosted = lease->service();
      const std::vector<storage::WalSegment> segments =
          hosted.store().Segments();
      ResponseHeader{Status::kOk, ""}.Encode(out);
      out->WriteString(hosted.backend_name());
      out->WriteU8(hosted.replica() ? 1 : 0);
      out->WriteU64(hosted.epoch());
      out->WriteU64(hosted.primary_epoch());
      out->WriteU64(hosted.store().committed_wal_bytes());
      out->WriteU64(segments.empty() ? 0 : segments.front().start_epoch);
      out->WriteU64(lease->bytes_shipped());
      out->WriteU32(static_cast<std::uint32_t>(segments.size()));
      for (const storage::WalSegment& segment : segments) {
        out->WriteU64(segment.start_epoch);
        out->WriteU64(segment.end_epoch);
        out->WriteU64(segment.bytes);
      }
      return;
    }
  }
  WriteError(out, Status::kUnimplemented, "unhandled verb");
}

template <typename T>
bool Server::AwaitTicket(std::future<T>& ticket, util::RequestContext& context,
                         std::uint32_t deadline_ms, util::ByteWriter* out) {
  if (!context.has_deadline()) {
    ticket.wait();
    return true;
  }
  if (ticket.wait_until(context.deadline()) == std::future_status::ready) {
    return true;
  }
  // Budget exhausted while the submission was queued or executing.
  // Cancel the context so the dispatcher drops the op unexecuted if it
  // has not started, then answer without waiting for it: the abandoned
  // ticket resolves (or fails) into a future nobody reads.
  context.Cancel();
  deadline_await_.fetch_add(1, std::memory_order_relaxed);
  WriteError(out, Status::kDeadlineExceeded,
             DeadlineMessage(deadline_ms, "exceeded while queued or executing"));
  return false;
}

void Server::WriteFrame(Connection* conn, const util::ByteWriter& payload) {
  // The length prefix is a u32: a larger body would write a truncated
  // prefix and desynchronize every pipelined response behind it, so
  // answer an error frame instead (responses, unlike requests, are not
  // bounded by max_frame_bytes).
  const std::vector<std::uint8_t>* body = &payload.bytes();
  util::ByteWriter oversized;
  if (body->size() > std::numeric_limits<std::uint32_t>::max()) {
    WriteError(&oversized, Status::kResourceExhausted,
               "response of " + std::to_string(body->size()) +
                   " bytes exceeds the 4 GiB frame limit; narrow the "
                   "request");
    body = &oversized.bytes();
  }
  const std::vector<std::uint8_t> frame = Frame(*body);
  conn->socket.WriteAll(frame.data(), frame.size());
  bytes_written_.fetch_add(frame.size(), std::memory_order_relaxed);
}

void Server::WriteError(util::ByteWriter* out, Status status,
                        std::string_view message) {
  ResponseHeader header;
  header.status = status;
  header.message = std::string(message);
  header.Encode(out);
}

void Server::HandleHttp(Connection* conn, std::array<char, 4> sniffed) {
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  // Read the rest of the request head byte-wise until CRLFCRLF (scrape
  // traffic; throughput is irrelevant, bounded memory is not).
  std::string request(sniffed.data(), sniffed.size());
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    char c;
    if (!conn->socket.ReadFull(&c, 1)) return;  // Torn request.
    request.push_back(c);
  }
  bytes_read_.fetch_add(request.size() - 4, std::memory_order_relaxed);
  // "METHOD SP PATH SP VERSION" -- we only need the path.
  const std::size_t sp1 = request.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request.find(' ', sp1 + 1);
  const std::string path =
      sp2 == std::string::npos ? "" : request.substr(sp1 + 1, sp2 - sp1 - 1);

  std::string status_line = "HTTP/1.1 200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = MetricsText();
  } else if (path == "/tracez" || path == "/tracez.json" ||
             path.rfind("/tracez?", 0) == 0) {
    const bool as_json = path == "/tracez.json" ||
                         path.find("format=json") != std::string::npos;
    if (as_json) content_type = "application/json";
    body = TracezText(as_json);
  } else if (path == "/healthz") {
    body = "ok\n";
  } else {
    status_line = "HTTP/1.1 404 Not Found";
    body = "not found\n";
  }
  std::string response = status_line + "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  conn->socket.WriteAll(response.data(), response.size());
  bytes_written_.fetch_add(response.size(), std::memory_order_relaxed);
}

namespace {

std::string TraceIdHex(std::uint64_t id) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(id));
  return buffer;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      *out += buffer;
      continue;
    }
    out->push_back(c);
  }
  out->push_back('"');
}

void RenderTraceText(std::string* out, const util::Trace& trace) {
  *out += "trace " + TraceIdHex(trace.id()) + " op=" +
          std::string(trace.op()) + " index=" + std::string(trace.target()) +
          " status=" +
          std::string(StatusName(static_cast<Status>(trace.status()))) +
          " total_us=" + std::to_string(trace.total_us());
  if (trace.dropped_spans() > 0) {
    *out += " dropped_spans=" + std::to_string(trace.dropped_spans());
  }
  *out += '\n';
  for (const util::Trace::SpanView& span : trace.Spans()) {
    char line[96];
    std::snprintf(line, sizeof(line), "  %-18s start_us=%-10llu dur_us=%llu\n",
                  std::string(util::TraceStageName(span.stage)).c_str(),
                  static_cast<unsigned long long>(span.start_us),
                  static_cast<unsigned long long>(span.duration_us));
    *out += line;
  }
}

void RenderTraceJson(std::string* out, const util::Trace& trace) {
  *out += "{\"trace_id\":";
  AppendJsonString(out, TraceIdHex(trace.id()));
  *out += ",\"op\":";
  AppendJsonString(out, trace.op());
  *out += ",\"index\":";
  AppendJsonString(out, trace.target());
  *out += ",\"status\":";
  AppendJsonString(out, StatusName(static_cast<Status>(trace.status())));
  *out += ",\"total_us\":" + std::to_string(trace.total_us());
  *out += ",\"dropped_spans\":" + std::to_string(trace.dropped_spans());
  *out += ",\"spans\":[";
  bool first = true;
  for (const util::Trace::SpanView& span : trace.Spans()) {
    if (!first) out->push_back(',');
    first = false;
    *out += "{\"stage\":";
    AppendJsonString(out, util::TraceStageName(span.stage));
    *out += ",\"start_us\":" + std::to_string(span.start_us);
    *out += ",\"duration_us\":" + std::to_string(span.duration_us) + "}";
  }
  *out += "]}";
}

}  // namespace

std::string Server::TracezText(bool as_json) {
  const std::vector<std::shared_ptr<util::Trace>> slow = traces_.Slow();
  const std::vector<std::shared_ptr<util::Trace>> sampled =
      traces_.Sampled();
  std::string out;
  if (as_json) {
    out += "{\"slow_threshold_us\":" + std::to_string(traces_.slow_us());
    out += ",\"slow\":[";
    bool first = true;
    for (const auto& trace : slow) {
      if (!first) out.push_back(',');
      first = false;
      RenderTraceJson(&out, *trace);
    }
    out += "],\"sampled\":[";
    first = true;
    for (const auto& trace : sampled) {
      if (!first) out.push_back(',');
      first = false;
      RenderTraceJson(&out, *trace);
    }
    out += "]}\n";
    return out;
  }
  out += "cgrx /tracez -- newest first; slow ring holds traces >= " +
         std::to_string(traces_.slow_us()) + " us\n\n";
  out += "== slow (" + std::to_string(slow.size()) + ") ==\n";
  for (const auto& trace : slow) RenderTraceText(&out, *trace);
  out += "\n== sampled (" + std::to_string(sampled.size()) + ") ==\n";
  for (const auto& trace : sampled) RenderTraceText(&out, *trace);
  return out;
}

namespace {

/// One index's /metrics values, gathered before emission because the
/// exposition format groups samples by family, not by index.
struct IndexRow {
  std::string name;
  bool replica = false;
  std::uint64_t epoch = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t pending = 0;
  std::uint64_t deadline_dropped = 0;
  std::uint64_t entries = 0;
  std::uint64_t memory_bytes = 0;
  std::uint64_t rays_fired = 0;
  std::uint64_t buckets_probed = 0;
  std::uint64_t filter_rejections = 0;
  std::uint64_t update_buckets_swept = 0;
  std::uint64_t replication_lag = 0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t wal_segments = 0;
};

/// A per-index family, labelled by index.
struct IndexFamily {
  const char* name;
  const char* help;
  const char* type;
  std::uint64_t IndexRow::*field;
  bool replica_only;
};

constexpr IndexFamily kIndexFamilies[] = {
    {"cgrx_index_epoch", "Last completed update epoch per index", "gauge",
     &IndexRow::epoch, false},
    {"cgrx_index_queue_depth",
     "Submissions queued behind the dispatcher per index", "gauge",
     &IndexRow::queue_depth, false},
    {"cgrx_index_pending", "Submissions queued or executing per index",
     "gauge", &IndexRow::pending, false},
    {"cgrx_index_deadline_dropped_total",
     "Submissions dropped unexecuted at dispatch because their deadline "
     "expired or the caller cancelled",
     "counter", &IndexRow::deadline_dropped, false},
    {"cgrx_index_entries", "Indexed entries per index", "gauge",
     &IndexRow::entries, false},
    {"cgrx_index_memory_bytes", "Resident index footprint per index",
     "gauge", &IndexRow::memory_bytes, false},
    {"cgrx_index_rays_fired_total", "Rays fired by the raytracing substrate",
     "counter", &IndexRow::rays_fired, false},
    {"cgrx_index_buckets_probed_total",
     "Bucket post-filter searches executed", "counter",
     &IndexRow::buckets_probed, false},
    {"cgrx_index_filter_rejections_total",
     "Lookups rejected by the miss filter", "counter",
     &IndexRow::filter_rejections, false},
    {"cgrx_index_update_buckets_swept_total",
     "Buckets visited by update waves, each touched bucket once per wave",
     "counter",
     &IndexRow::update_buckets_swept, false},
    {"cgrx_replication_lag_epochs",
     "Epochs a replica trails its primary's last observed head", "gauge",
     &IndexRow::replication_lag, true},
    {"cgrx_replica_applied_epoch",
     "Last epoch a replica has durably applied", "gauge", &IndexRow::epoch,
     true},
    {"cgrx_replication_bytes_shipped_total",
     "Wave payload bytes shipped to replication fetchers per index",
     "counter", &IndexRow::bytes_shipped, false},
    {"cgrx_wal_retained_segments",
     "WAL segment files on disk per index (live tail plus retention-held "
     "history)",
     "gauge", &IndexRow::wal_segments, false},
};

}  // namespace

std::string Server::MetricsText() {
  std::vector<IndexRow> rows;
  for (const std::string& name : router_.Names()) {
    IndexRouter::Lease lease = router_.Acquire(name);
    if (!lease) continue;
    auto& hosted = lease->service();
    auto& service = hosted.service();
    IndexRow row;
    row.name = name;
    row.replica = hosted.replica();
    row.epoch = service.epoch();
    row.queue_depth = service.queue_depth();
    row.pending = service.pending();
    const api::IndexStats stats = hosted.Stats();
    // After Stats() (queue-synchronized): every already-queued op --
    // including ones about to be dropped -- has been dispatched, so
    // the drop counter is not read a step behind the queue.
    row.deadline_dropped = service.deadline_dropped();
    row.entries = stats.entries;
    row.memory_bytes = stats.memory_bytes;
    row.rays_fired = stats.rays_fired;
    row.buckets_probed = stats.buckets_probed;
    row.filter_rejections = stats.filter_rejections;
    row.update_buckets_swept = stats.update_buckets_swept;
    const std::uint64_t primary_epoch = hosted.primary_epoch();
    row.replication_lag =
        primary_epoch > row.epoch ? primary_epoch - row.epoch : 0;
    row.bytes_shipped = lease->bytes_shipped();
    row.wal_segments = hosted.store().Segments().size();
    rows.push_back(std::move(row));
  }

  PrometheusWriter w;
  w.Family("cgrx_requests_total", "Requests received, by verb", "counter");
  for (std::uint8_t v = 0; v < kVerbCount; ++v) {
    w.Labelled("cgrx_requests_total", "verb", VerbName(static_cast<Verb>(v)),
               requests_total_[v].load(std::memory_order_relaxed));
  }
  w.Family("cgrx_rejected_total",
           "Admission-control rejections, by reason", "counter");
  w.Labelled("cgrx_rejected_total", "reason", "rate_limit",
             rejected_rate_limit_.load(std::memory_order_relaxed));
  w.Labelled("cgrx_rejected_total", "reason", "concurrency",
             rejected_concurrency_.load(std::memory_order_relaxed));
  w.Labelled("cgrx_rejected_total", "reason", "connections",
             rejected_connections_.load(std::memory_order_relaxed));
  w.Labelled("cgrx_rejected_total", "reason", "sessions",
             rejected_sessions_.load(std::memory_order_relaxed));
  w.Family("cgrx_malformed_frames_total",
           "Frames rejected as oversized or undecodable", "counter");
  w.Value("cgrx_malformed_frames_total",
          malformed_frames_.load(std::memory_order_relaxed));
  w.Family("cgrx_connections_accepted_total", "Connections accepted",
           "counter");
  w.Value("cgrx_connections_accepted_total",
          connections_accepted_.load(std::memory_order_relaxed));
  w.Family("cgrx_connections_active", "Currently connected clients",
           "gauge");
  w.Value("cgrx_connections_active",
          active_connections_.load(std::memory_order_relaxed));
  w.Family("cgrx_sessions_active", "Sessions created and retained",
           "gauge");
  w.Value("cgrx_sessions_active",
          static_cast<std::uint64_t>(sessions_.size()));
  w.Family("cgrx_sessions_evicted_total",
           "Sessions evicted by idle-TTL expiry", "counter");
  w.Value("cgrx_sessions_evicted_total", sessions_.evicted());
  w.Family("cgrx_accept_errors_total",
           "Unexpected accept() failures survived by the accept loop",
           "counter");
  w.Value("cgrx_accept_errors_total",
          accept_errors_.load(std::memory_order_relaxed));
  w.Family("cgrx_http_requests_total", "HTTP requests served", "counter");
  w.Value("cgrx_http_requests_total",
          http_requests_.load(std::memory_order_relaxed));
  w.Family("cgrx_bytes_read_total", "Bytes read from clients", "counter");
  w.Value("cgrx_bytes_read_total",
          bytes_read_.load(std::memory_order_relaxed));
  w.Family("cgrx_bytes_written_total", "Bytes written to clients",
           "counter");
  w.Value("cgrx_bytes_written_total",
          bytes_written_.load(std::memory_order_relaxed));
  w.Family("cgrx_deadline_exceeded_total",
           "Requests answered kDeadlineExceeded, by stage the budget "
           "ran out in",
           "counter");
  w.Labelled("cgrx_deadline_exceeded_total", "stage", "queue_estimate",
             deadline_queue_estimate_.load(std::memory_order_relaxed));
  w.Labelled("cgrx_deadline_exceeded_total", "stage", "admission",
             deadline_admission_.load(std::memory_order_relaxed));
  w.Labelled("cgrx_deadline_exceeded_total", "stage", "epoch_wait",
             deadline_epoch_wait_.load(std::memory_order_relaxed));
  w.Labelled("cgrx_deadline_exceeded_total", "stage", "await",
             deadline_await_.load(std::memory_order_relaxed));

  // Latency histograms: end-to-end per verb, then per pipeline stage.
  // Every series is emitted even at zero count so dashboards (and the
  // CI scrape lint) see a stable exposition shape from first scrape.
  w.Family("cgrx_request_latency_seconds",
           "End-to-end server time per request (decode to response "
           "payload ready), by verb",
           "histogram");
  for (std::uint8_t v = 0; v < kVerbCount; ++v) {
    w.HistogramUs("cgrx_request_latency_seconds",
                  {"verb", VerbName(static_cast<Verb>(v))},
                  request_hist_[v].snapshot());
  }
  w.Family("cgrx_stage_latency_seconds",
           "Time spent in each request pipeline stage (decode, "
           "admission, queue wait, execute, WAL, response write, ...)",
           "histogram");
  for (std::size_t s = 0; s < util::kTraceStageCount; ++s) {
    const auto stage = static_cast<util::TraceStage>(s);
    w.HistogramUs("cgrx_stage_latency_seconds",
                  {"stage", util::TraceStageName(stage)},
                  util::StageHistogram(stage).snapshot());
  }
  w.Family("cgrx_traces_started_total",
           "Requests traced end to end (client-flagged or sampled)",
           "counter");
  w.Value("cgrx_traces_started_total",
          traces_started_.load(std::memory_order_relaxed));
  w.Family("cgrx_traces_retained_total",
           "Completed traces inserted into the /tracez rings", "counter");
  w.Value("cgrx_traces_retained_total", traces_.inserted());

  for (const IndexFamily& family : kIndexFamilies) {
    w.Family(family.name, family.help, family.type);
    for (const IndexRow& row : rows) {
      if (family.replica_only && !row.replica) continue;
      w.Labelled(family.name, "index", row.name, row.*family.field);
    }
  }

  const util::TaskScheduler::Stats scheduler =
      options_.policy.scheduler().stats();
  w.Family("cgrx_scheduler_threads", "Scheduler execution threads",
           "gauge");
  w.Value("cgrx_scheduler_threads",
          static_cast<std::uint64_t>(scheduler.num_threads));
  w.Family("cgrx_scheduler_tasks_executed_total",
           "Tasks run to completion by the work-stealing scheduler",
           "counter");
  w.Value("cgrx_scheduler_tasks_executed_total", scheduler.tasks_executed);
  w.Family("cgrx_scheduler_steals_total",
           "Tasks acquired from another worker's deque", "counter");
  w.Value("cgrx_scheduler_steals_total", scheduler.steals);
  return w.text();
}

}  // namespace cgrx::net
