// Serving-layer microbenchmark: ShardedIndex fan-out and combined
// update waves over one backend, emitted as machine-readable JSON
// (BENCH_sharded.json).
//
// For the unsharded baseline and each (scheme, shard count) cell it
// reports build time, point-lookup throughput (serial and
// scheduler-parallel policies), combined-wave update throughput, and a
// correctness check against the unsharded baseline's lookup results.
//
// Standalone (no google-benchmark dependency) so CI can always build
// and smoke-run it:
//
//   bench_sharded [--keys N] [--lookups M] [--wave W] [--backend B]
//                 [--out FILE] [--out_dir DIR]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_io.h"

#include "src/api/execution_policy.h"
#include "src/api/factory.h"
#include "src/api/index.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {

using cgrx::api::ExecutionPolicy;
using cgrx::api::IndexOptions;
using cgrx::api::IndexPtr;
using cgrx::api::IndexStats;
using cgrx::api::MakeIndex;
using cgrx::api::ShardScheme;
using cgrx::core::LookupResult;
using cgrx::util::Rng;
using cgrx::util::Timer;

struct CellResult {
  std::string config;       // "unsharded", "range x4", "hash x8", ...
  std::string scheme;       // "none", "range", "hash"
  std::uint32_t shards = 1;
  double build_seconds = 0;
  double serial_lookups_per_sec = 0;
  double parallel_lookups_per_sec = 0;
  double wave_updates_per_sec = 0;
  std::size_t memory_bytes = 0;
  bool matches_baseline = true;
};

double MeasureLookups(const cgrx::api::Index<std::uint64_t>& index,
                      const std::vector<std::uint64_t>& probes,
                      std::vector<LookupResult>* results,
                      const ExecutionPolicy& policy) {
  results->resize(probes.size());
  Timer timer;
  index.PointLookupBatch(probes.data(), probes.size(), results->data(),
                         policy);
  return static_cast<double>(probes.size()) / timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_keys = 4'000'000;
  std::size_t num_lookups = 1'000'000;
  std::size_t wave_size = 200'000;
  std::string backend = "cgrxu";
  std::string out_file = "BENCH_sharded.json";
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--keys") {
      num_keys = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--lookups") {
      num_lookups = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--wave") {
      wave_size = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--backend") {
      backend = next();
    } else if (arg == "--out") {
      out_file = next();
    } else if (arg == "--out_dir") {
      out_dir = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--keys N] [--lookups M] [--wave W] "
                   "[--backend B] [--out FILE] [--out_dir DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (num_keys == 0 || num_lookups == 0 || wave_size == 0) {
    std::fprintf(stderr, "--keys, --lookups and --wave must be positive\n");
    return 2;
  }
  const std::string out_path = cgrx::bench::OutputPath::Resolve(out_file,
                                                                out_dir);

  // Distinct keys (even values) so update waves have unambiguous
  // semantics; waves insert odd keys and retire them again.
  std::vector<std::uint64_t> keys(num_keys);
  for (std::size_t i = 0; i < num_keys; ++i) {
    keys[i] = 2 * static_cast<std::uint64_t>(i);
  }
  Rng rng(0x5a4ded);
  for (std::size_t i = num_keys; i > 1; --i) {  // Shuffle the load order.
    std::swap(keys[i - 1], keys[rng.Below(i)]);
  }
  std::vector<std::uint64_t> probes(num_lookups);
  for (auto& p : probes) p = keys[rng.Below(num_keys)];
  // Wave keys are odd (absent) values strided across the whole key
  // space, so range-sharded waves spread over every shard instead of
  // piling onto the last one.
  std::vector<std::uint64_t> wave_ins(wave_size);
  std::vector<std::uint32_t> wave_rows(wave_size);
  const std::size_t stride = std::max<std::size_t>(1, num_keys / wave_size);
  for (std::size_t i = 0; i < wave_size; ++i) {
    wave_ins[i] = 2 * static_cast<std::uint64_t>(i * stride) + 1;
    wave_rows[i] = static_cast<std::uint32_t>(num_keys + i);
  }

  struct Cell {
    const char* scheme_name;
    ShardScheme scheme;
    std::uint32_t shards;
  };
  const Cell cells[] = {
      {"range", ShardScheme::kRange, 2}, {"range", ShardScheme::kRange, 4},
      {"range", ShardScheme::kRange, 8}, {"hash", ShardScheme::kHash, 2},
      {"hash", ShardScheme::kHash, 4},   {"hash", ShardScheme::kHash, 8},
  };

  std::vector<CellResult> rows;
  std::vector<LookupResult> baseline_results;
  std::vector<LookupResult> scratch;

  auto run_cell = [&](const std::string& label, const std::string& scheme,
                      std::uint32_t shards,
                      const IndexPtr<std::uint64_t>& index) {
    CellResult row;
    row.config = label;
    row.scheme = scheme;
    row.shards = shards;
    Timer build_timer;
    index->Build(std::vector<std::uint64_t>(keys));
    row.build_seconds = build_timer.ElapsedSeconds();
    row.serial_lookups_per_sec =
        MeasureLookups(*index, probes, &scratch, ExecutionPolicy::Serial());
    if (baseline_results.empty()) baseline_results = scratch;
    row.matches_baseline = scratch == baseline_results;
    row.parallel_lookups_per_sec =
        MeasureLookups(*index, probes, &scratch, ExecutionPolicy::Parallel());
    row.matches_baseline =
        row.matches_baseline && scratch == baseline_results;
    // One combined wave in (insert the odd keys), one wave out (retire
    // them): steady-state churn at constant footprint.
    Timer wave_timer;
    index->UpdateBatch(wave_ins, wave_rows, {});
    index->UpdateBatch({}, {}, wave_ins);
    row.wave_updates_per_sec = static_cast<double>(2 * wave_size) /
                               wave_timer.ElapsedSeconds();
    row.memory_bytes = index->Stats().memory_bytes;
    rows.push_back(row);
    std::printf(
        "%-12s  build %6.2fs  serial %10.0f l/s  parallel %10.0f l/s  "
        "waves %10.0f u/s  %s\n",
        label.c_str(), row.build_seconds, row.serial_lookups_per_sec,
        row.parallel_lookups_per_sec, row.wave_updates_per_sec,
        row.matches_baseline ? "ok" : "MISMATCH");
  };

  std::printf("benchmarking backend \"%s\" over %zu keys, %zu lookups\n",
              backend.c_str(), num_keys, num_lookups);
  run_cell("unsharded", "none", 1, MakeIndex<std::uint64_t>(backend));
  for (const Cell& cell : cells) {
    IndexOptions options;
    options.shard_count = cell.shards;
    options.shard_scheme = cell.scheme;
    run_cell(std::string(cell.scheme_name) + " x" +
                 std::to_string(cell.shards),
             cell.scheme_name, cell.shards,
             MakeIndex<std::uint64_t>("sharded:" + backend, options));
  }

  bool all_match = true;
  for (const CellResult& row : rows) all_match &= row.matches_baseline;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"sharded\",\n");
  std::fprintf(out, "  \"backend\": \"%s\",\n", backend.c_str());
  std::fprintf(out, "  \"key_bits\": 64,\n");
  std::fprintf(out, "  \"keys\": %zu,\n", num_keys);
  std::fprintf(out, "  \"lookups\": %zu,\n", num_lookups);
  std::fprintf(out, "  \"wave_size\": %zu,\n", wave_size);
  std::fprintf(out, "  \"all_match_baseline\": %s,\n",
               all_match ? "true" : "false");
  std::fprintf(out, "  \"configs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CellResult& row = rows[i];
    std::fprintf(
        out,
        "    {\"config\": \"%s\", \"scheme\": \"%s\", \"shards\": %u, "
        "\"build_seconds\": %.3f, \"serial_lookups_per_sec\": %.0f, "
        "\"parallel_lookups_per_sec\": %.0f, "
        "\"wave_updates_per_sec\": %.0f, \"memory_bytes\": %zu, "
        "\"matches_baseline\": %s}%s\n",
        row.config.c_str(), row.scheme.c_str(), row.shards,
        row.build_seconds, row.serial_lookups_per_sec,
        row.parallel_lookups_per_sec, row.wave_updates_per_sec,
        row.memory_bytes,
        row.matches_baseline ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_match ? 0 : 1;
}
