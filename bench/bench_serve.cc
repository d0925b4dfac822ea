// Serving-tier load generator: open-loop offered load over loopback
// against the in-process RPC server (src/net), emitted as
// machine-readable JSON (BENCH_serve.json).
//
// Shape: one Server hosting one durable index, populated over the wire
// by update waves; then a sweep of offered-QPS points. Each point runs
// N client connections (one thread each) firing point-lookup RPCs of
// `--batch` zipf-skewed keys on an open-loop schedule: request i on a
// connection is *due* at start + i * interval, and its latency is
// measured from that due time, not from the actual send -- so a server
// that falls behind accrues queueing delay in the percentiles instead
// of silently slowing the generator (coordinated omission). A fraction
// of requests are single-key update waves (--write_ratio).
//
// A final overload phase runs against a second server configured with
// a tight per-client token bucket and reports how fast rejections come
// back: admission control must degrade to quick kResourceExhausted
// answers, never to hangs.
//
// Standalone (no google-benchmark dependency) so CI can always build
// and smoke-run it:
//
// With --deadline_ms D every RPC carries a server-enforced deadline,
// and each sweep point additionally reports the outcome split: answers
// inside the deadline, kOk answers that came back late anyway
// (queued-then-late: the server finished them but the caller had
// already lost interest), and kDeadlineExceeded answers (dropped
// before execution by admission or at dispatch).
//
// With --server_breakdown every sweep point additionally diffs the
// process-global per-stage latency histograms (decode, admission,
// queue_wait, execute, wal_*, response_write, ...) across the point and
// reports each stage's count/mean/p99 -- the server-side view of where
// a request's time went, next to the client-observed percentiles.
// --metrics_out FILE dumps the final /metrics scrape to FILE so CI can
// lint and archive the Prometheus exposition.
//
//   bench_serve [--keys N] [--connections C] [--seconds S] [--batch B]
//               [--qps Q1,Q2,...] [--write_ratio R] [--theta T]
//               [--deadline_ms D] [--server_breakdown]
//               [--metrics_out FILE] [--out FILE] [--out_dir DIR]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "bench/bench_io.h"

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/trace.h"
#include "src/util/zipf.h"

namespace {

using cgrx::net::Client;
using cgrx::net::Server;
using cgrx::net::Status;
using cgrx::util::LatencyHistogram;
using cgrx::util::Rng;
using cgrx::util::TraceStage;
using cgrx::util::ZipfGenerator;

using Clock = std::chrono::steady_clock;

/// One stage's share of a sweep point, diffed from the process-global
/// stage histograms (so concurrent background work -- checkpoints, a
/// replica -- shows up honestly in its own stage rather than skewing
/// the request stages).
struct StageCut {
  std::uint64_t count = 0;
  double mean_us = 0;
  double p99_us = 0;
};

using StageSnapshots =
    std::array<LatencyHistogram::Snapshot, cgrx::util::kTraceStageCount>;

StageSnapshots SnapshotStages() {
  StageSnapshots all;
  for (std::size_t s = 0; s < all.size(); ++s) {
    all[s] =
        cgrx::util::StageHistogram(static_cast<TraceStage>(s)).snapshot();
  }
  return all;
}

std::array<StageCut, cgrx::util::kTraceStageCount> DiffStages(
    const StageSnapshots& before, const StageSnapshots& after) {
  std::array<StageCut, cgrx::util::kTraceStageCount> cuts;
  for (std::size_t s = 0; s < cuts.size(); ++s) {
    LatencyHistogram::Snapshot delta = after[s];
    for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= before[s].buckets[i];
    }
    delta.count -= before[s].count;
    delta.sum -= before[s].sum;
    cuts[s].count = delta.count;
    cuts[s].mean_us = delta.Mean();
    cuts[s].p99_us = delta.Quantile(0.99);
  }
  return cuts;
}

struct Point {
  double offered_qps = 0;
  double achieved_qps = 0;      // Completed RPCs per second.
  double lookups_per_sec = 0;   // Keys resolved per second.
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;   // kResourceExhausted answers.
  std::uint64_t errors = 0;     // Any other non-OK status, or transport.
  // Deadline outcome split (all zero unless --deadline_ms is set).
  std::uint64_t ok_in_deadline = 0;    // kOk within the budget.
  std::uint64_t ok_late = 0;           // kOk, but past the budget.
  std::uint64_t deadline_exceeded = 0; // kDeadlineExceeded answers.
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(
                                                     v.size() - 1));
  return v[rank];
}

/// One offered-QPS point: `connections` threads, open-loop schedule.
Point RunPoint(std::uint16_t port, const std::string& index,
               double offered_qps, int connections, double seconds,
               std::size_t batch, double write_ratio, std::size_t num_keys,
               double theta, std::uint32_t deadline_ms) {
  const ZipfGenerator zipf(num_keys, theta);
  const double per_connection_qps =
      offered_qps / static_cast<double>(connections);
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::uint64_t>(1e9 / per_connection_qps));
  const auto requests_per_connection = static_cast<std::uint64_t>(
      per_connection_qps * seconds);

  struct PerThread {
    std::vector<double> latencies_us;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    std::uint64_t keys_resolved = 0;
    std::uint64_t ok_in_deadline = 0;
    std::uint64_t ok_late = 0;
    std::uint64_t deadline_exceeded = 0;
  };
  std::vector<PerThread> results(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  for (int t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      Client::Options copts;
      copts.call_deadline = std::chrono::milliseconds(deadline_ms);
      Client client("localhost", port, copts);
      PerThread& mine = results[static_cast<std::size_t>(t)];
      mine.latencies_us.reserve(requests_per_connection);
      Rng rng(0x5EEDULL + static_cast<std::uint64_t>(t));
      std::vector<std::uint64_t> keys(batch);
      std::uint64_t next_insert_key =
          1'000'000'000ULL * (static_cast<std::uint64_t>(t) + 1);
      for (std::uint64_t i = 0; i < requests_per_connection; ++i) {
        const Clock::time_point due = start + i * interval;
        std::this_thread::sleep_until(due);  // No-op once behind.
        const bool is_write = rng.NextDouble() < write_ratio;
        Status status;
        std::size_t resolved = 0;
        const Clock::time_point call_start = Clock::now();
        try {
          if (is_write) {
            const std::uint64_t key = next_insert_key++;
            status =
                client
                    .Update(index, {key},
                            {static_cast<std::uint32_t>(key & 0xffffff)}, {})
                    .status;
          } else {
            for (std::size_t k = 0; k < batch; ++k) {
              keys[k] = static_cast<std::uint64_t>(zipf.Next(&rng)) + 1;
            }
            const Client::LookupReply reply = client.PointLookup(index, keys);
            status = reply.status;
            resolved = reply.results.size();
          }
        } catch (const std::exception&) {
          // Transport timeout or reset; the client poisons and
          // reconnects lazily on the next call.
          ++mine.errors;
          continue;
        }
        const Clock::time_point done = Clock::now();
        const double latency_us =
            std::chrono::duration<double, std::micro>(done - due).count();
        // Deadline accounting runs on the call's own wall time (send to
        // answer), matching the budget the server enforces; the
        // percentile latency stays anchored to the open-loop due time.
        const double call_ms =
            std::chrono::duration<double, std::milli>(done - call_start)
                .count();
        if (status == Status::kOk) {
          ++mine.ok;
          mine.keys_resolved += resolved;
          mine.latencies_us.push_back(latency_us);
          if (deadline_ms > 0) {
            if (call_ms <= static_cast<double>(deadline_ms)) {
              ++mine.ok_in_deadline;
            } else {
              ++mine.ok_late;
            }
          }
        } else if (status == Status::kResourceExhausted) {
          // Rejections count toward the latency profile too: the whole
          // point of admission control is that they come back fast.
          ++mine.rejected;
          mine.latencies_us.push_back(latency_us);
        } else if (status == Status::kDeadlineExceeded) {
          // Refused or dropped unexecuted under its budget -- the
          // deadline answer must come back fast, so it counts toward
          // the latency profile as well.
          ++mine.deadline_exceeded;
          mine.latencies_us.push_back(latency_us);
        } else {
          ++mine.errors;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  Point point;
  point.offered_qps = offered_qps;
  std::vector<double> all;
  for (const PerThread& r : results) {
    point.ok += r.ok;
    point.rejected += r.rejected;
    point.errors += r.errors;
    point.ok_in_deadline += r.ok_in_deadline;
    point.ok_late += r.ok_late;
    point.deadline_exceeded += r.deadline_exceeded;
    point.lookups_per_sec += static_cast<double>(r.keys_resolved);
    all.insert(all.end(), r.latencies_us.begin(), r.latencies_us.end());
  }
  point.achieved_qps = static_cast<double>(point.ok) / elapsed;
  point.lookups_per_sec /= elapsed;
  point.p50_us = Percentile(&all, 0.50);
  point.p99_us = Percentile(&all, 0.99);
  point.p999_us = Percentile(&all, 0.999);
  point.max_us = all.empty() ? 0 : all.back();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_keys = 1'000'000;
  int connections = 8;
  double seconds = 2.0;
  std::size_t batch = 32;
  double write_ratio = 0.02;
  double theta = 0.99;
  std::uint32_t deadline_ms = 0;
  bool server_breakdown = false;
  std::string metrics_out;
  std::string qps_list = "1000,4000,8000,16000";
  std::string out_file = "BENCH_serve.json";
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--keys") {
      num_keys = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--connections") {
      connections = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--seconds") {
      seconds = std::strtod(next(), nullptr);
    } else if (arg == "--batch") {
      batch = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--write_ratio") {
      write_ratio = std::strtod(next(), nullptr);
    } else if (arg == "--theta") {
      theta = std::strtod(next(), nullptr);
    } else if (arg == "--deadline_ms") {
      deadline_ms = static_cast<std::uint32_t>(
          std::strtoul(next(), nullptr, 10));
    } else if (arg == "--server_breakdown") {
      server_breakdown = true;
    } else if (arg == "--metrics_out") {
      metrics_out = next();
    } else if (arg == "--qps") {
      qps_list = next();
    } else if (arg == "--out") {
      out_file = next();
    } else if (arg == "--out_dir") {
      out_dir = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--keys N] [--connections C] [--seconds S] "
                   "[--batch B] [--qps Q1,Q2,...] [--write_ratio R] "
                   "[--theta T] [--deadline_ms D] [--server_breakdown] "
                   "[--metrics_out FILE] [--out FILE] [--out_dir DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (num_keys == 0 || connections <= 0 || batch == 0 || seconds <= 0) {
    std::fprintf(stderr, "bench_serve: invalid arguments\n");
    return 2;
  }

  std::vector<double> sweep;
  for (std::size_t pos = 0; pos < qps_list.size();) {
    const std::size_t comma = qps_list.find(',', pos);
    const std::string token =
        qps_list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
    if (!token.empty()) sweep.push_back(std::strtod(token.c_str(), nullptr));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("cgrx_bench_serve_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  Server::Options options;
  options.root = root;
  options.service_queue_limit = 1024;
  Server server(options);

  // Populate over the wire: update waves of 64k keys [1, num_keys].
  const std::string index = "bench";
  {
    Client loader("localhost", server.port());
    const Client::OpenReply open = loader.OpenIndex(index, "cgrxu");
    if (!open.ok()) {
      std::fprintf(stderr, "bench_serve: open failed: %s\n",
                   open.message.c_str());
      return 1;
    }
    // Few large waves: each wave pays a round trip and a durable WAL
    // commit, so the load phase wants wave count low, not wave size
    // small.
    const std::size_t wave = std::max<std::size_t>(65'536, num_keys / 4);
    for (std::size_t lo = 1; lo <= num_keys; lo += wave) {
      const std::size_t hi = std::min(num_keys, lo + wave - 1);
      std::vector<std::uint64_t> keys;
      std::vector<std::uint32_t> rows;
      keys.reserve(hi - lo + 1);
      rows.reserve(hi - lo + 1);
      for (std::size_t k = lo; k <= hi; ++k) {
        keys.push_back(k);
        rows.push_back(static_cast<std::uint32_t>(k & 0xffffff));
      }
      const Client::UpdateReply reply =
          loader.Update(index, std::move(keys), std::move(rows), {});
      if (!reply.ok()) {
        std::fprintf(stderr, "bench_serve: load failed: %s\n",
                     reply.message.c_str());
        return 1;
      }
    }
    loader.Checkpoint(index);
  }
  std::printf("bench_serve: loaded %zu keys over the wire (%d connections, "
              "batch %zu, write_ratio %.2f, theta %.2f)\n",
              num_keys, connections, batch, write_ratio, theta);

  std::vector<Point> points;
  std::vector<std::array<StageCut, cgrx::util::kTraceStageCount>> breakdowns;
  for (const double qps : sweep) {
    const StageSnapshots before =
        server_breakdown ? SnapshotStages() : StageSnapshots{};
    const Point point = RunPoint(server.port(), index, qps, connections,
                                 seconds, batch, write_ratio, num_keys,
                                 theta, deadline_ms);
    if (server_breakdown) {
      breakdowns.push_back(DiffStages(before, SnapshotStages()));
    }
    std::printf("  offered %8.0f rpc/s: achieved %8.0f rpc/s "
                "(%9.0f lookups/s)  p50 %7.1fus  p99 %7.1fus  "
                "p999 %7.1fus  ok %llu rejected %llu errors %llu\n",
                point.offered_qps, point.achieved_qps,
                point.lookups_per_sec, point.p50_us, point.p99_us,
                point.p999_us,
                static_cast<unsigned long long>(point.ok),
                static_cast<unsigned long long>(point.rejected),
                static_cast<unsigned long long>(point.errors));
    if (deadline_ms > 0) {
      const double total = static_cast<double>(
          point.ok + point.rejected + point.errors + point.deadline_exceeded);
      std::printf("      deadline %ums: in-deadline %llu  "
                  "queued-then-late %llu  deadline-exceeded %llu  "
                  "(%.1f%% answered in budget)\n",
                  deadline_ms,
                  static_cast<unsigned long long>(point.ok_in_deadline),
                  static_cast<unsigned long long>(point.ok_late),
                  static_cast<unsigned long long>(point.deadline_exceeded),
                  total == 0 ? 0.0
                             : 100.0 *
                                   static_cast<double>(point.ok_in_deadline) /
                                   total);
    }
    if (server_breakdown) {
      std::printf("      server breakdown (us, mean/p99):");
      const auto& cuts = breakdowns.back();
      for (std::size_t s = 0; s < cuts.size(); ++s) {
        if (cuts[s].count == 0) continue;
        std::printf(" %s %.0f/%.0f",
                    std::string(cgrx::util::TraceStageName(
                                    static_cast<TraceStage>(s)))
                        .c_str(),
                    cuts[s].mean_us, cuts[s].p99_us);
      }
      std::printf("\n");
    }
    points.push_back(point);
  }

  // Overload phase: a server with a tight per-client budget must answer
  // kResourceExhausted quickly, not queue or hang.
  Point overload;
  {
    const std::filesystem::path root2 = root.string() + "_overload";
    std::filesystem::remove_all(root2);
    Server::Options tight;
    tight.root = root2;
    tight.rate_limit_per_client = 100;
    tight.rate_limit_burst = 16;
    Server limited(tight);
    {
      Client setup("localhost", limited.port());
      setup.OpenIndex(index, "cgrxu");
      setup.Update(index, {1, 2, 3}, {1, 2, 3}, {});
    }
    // Offer ~50x the budget; nearly everything must come back as a
    // fast rejection.
    overload = RunPoint(limited.port(), index,
                        5000.0 * connections / 8, connections,
                        std::min(seconds, 1.0), batch, 0.0, 3, theta,
                        /*deadline_ms=*/0);
    std::printf("  overload: ok %llu rejected %llu errors %llu "
                "(rejections must dominate and return fast)\n",
                static_cast<unsigned long long>(overload.ok),
                static_cast<unsigned long long>(overload.rejected),
                static_cast<unsigned long long>(overload.errors));
    limited.Stop();
    std::filesystem::remove_all(root2);
  }

  const std::string scrape = server.MetricsText();
  server.Stop();
  std::filesystem::remove_all(root);

  if (!metrics_out.empty()) {
    std::FILE* mf = std::fopen(metrics_out.c_str(), "w");
    if (mf == nullptr) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::fwrite(scrape.data(), 1, scrape.size(), mf);
    std::fclose(mf);
    std::printf("bench_serve: wrote %s (%zu bytes of /metrics)\n",
                metrics_out.c_str(), scrape.size());
  }

  const std::string path = cgrx::bench::OutputPath::Resolve(out_file,
                                                            out_dir);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serve\",\n  \"keys\": %zu,\n"
               "  \"connections\": %d,\n  \"batch\": %zu,\n"
               "  \"write_ratio\": %g,\n  \"theta\": %g,\n"
               "  \"deadline_ms\": %u,\n"
               "  \"seconds_per_point\": %g,\n  \"points\": [\n",
               num_keys, connections, batch, write_ratio, theta,
               deadline_ms, seconds);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const double total = static_cast<double>(p.ok + p.rejected + p.errors +
                                             p.deadline_exceeded);
    std::fprintf(f,
                 "    {\"offered_qps\": %g, \"achieved_qps\": %.1f, "
                 "\"lookups_per_sec\": %.1f, \"ok\": %llu, "
                 "\"rejected\": %llu, \"errors\": %llu, "
                 "\"ok_in_deadline\": %llu, \"ok_late\": %llu, "
                 "\"deadline_exceeded\": %llu, "
                 "\"frac_ok_in_deadline\": %.4f, "
                 "\"frac_ok_late\": %.4f, "
                 "\"frac_deadline_exceeded\": %.4f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                 "\"p999_us\": %.1f, \"max_us\": %.1f}%s\n",
                 p.offered_qps, p.achieved_qps, p.lookups_per_sec,
                 static_cast<unsigned long long>(p.ok),
                 static_cast<unsigned long long>(p.rejected),
                 static_cast<unsigned long long>(p.errors),
                 static_cast<unsigned long long>(p.ok_in_deadline),
                 static_cast<unsigned long long>(p.ok_late),
                 static_cast<unsigned long long>(p.deadline_exceeded),
                 total == 0 ? 0.0
                            : static_cast<double>(p.ok_in_deadline) / total,
                 total == 0 ? 0.0 : static_cast<double>(p.ok_late) / total,
                 total == 0
                     ? 0.0
                     : static_cast<double>(p.deadline_exceeded) / total,
                 p.p50_us, p.p99_us, p.p999_us, p.max_us,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"overload\": {\"offered_qps\": %g, "
               "\"ok\": %llu, \"rejected\": %llu, \"errors\": %llu, "
               "\"rejection_p99_us\": %.1f},\n",
               overload.offered_qps,
               static_cast<unsigned long long>(overload.ok),
               static_cast<unsigned long long>(overload.rejected),
               static_cast<unsigned long long>(overload.errors),
               overload.p99_us);
  if (server_breakdown) {
    std::fprintf(f, "  \"server_breakdown\": [\n");
    for (std::size_t i = 0; i < breakdowns.size(); ++i) {
      std::fprintf(f, "    {\"offered_qps\": %g, \"stages\": {",
                   points[i].offered_qps);
      bool first = true;
      for (std::size_t s = 0; s < breakdowns[i].size(); ++s) {
        const StageCut& cut = breakdowns[i][s];
        if (cut.count == 0) continue;
        std::fprintf(f,
                     "%s\"%s\": {\"count\": %llu, \"mean_us\": %.1f, "
                     "\"p99_us\": %.1f}",
                     first ? "" : ", ",
                     std::string(cgrx::util::TraceStageName(
                                     static_cast<TraceStage>(s)))
                         .c_str(),
                     static_cast<unsigned long long>(cut.count),
                     cut.mean_us, cut.p99_us);
        first = false;
      }
      std::fprintf(f, "}}%s\n", i + 1 < breakdowns.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  std::fprintf(f, "  \"metrics_scrape_bytes\": %zu\n}\n", scrape.size());
  std::fclose(f);
  std::printf("bench_serve: wrote %s\n", path.c_str());
  return 0;
}
