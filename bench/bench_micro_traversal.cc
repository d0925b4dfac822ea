// Traversal microbenchmark over one cgRX scene: casts per second and
// BVH nodes visited per ray for the wide traversal every lookup takes
// (Scene::CastRay) and the binary reference BVH it is built from
// (Scene::CastRayBinary), each over every probe's first lookup ray, in
// probe order and in the coherence schedule's order
// (core::CoherentOrder). One more row times the production path,
// cgRX's PointLookupBatch, serial and parallel. Emits machine-readable
// JSON (BENCH_traversal.json).
//
// Standalone (no google-benchmark dependency) so the Release CI job can
// always build and smoke-run it:
//
//   bench_micro_traversal [--keys N] [--lookups M] [--out FILE]
//                         [--out_dir DIR]
//
// Defaults: 10M uniform uint64 keys, 2M hit-only lookups.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/api/execution_policy.h"
#include "src/core/cgrx_index.h"
#include "src/core/coherent.h"
#include "src/rt/scene.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {

using cgrx::api::ExecutionPolicy;
using cgrx::core::CgrxConfig;
using cgrx::core::CgrxIndex64;
using cgrx::core::LookupResult;
using cgrx::rt::Ray;
using cgrx::rt::Scene;
using cgrx::rt::TraversalStats;
using cgrx::util::Rng;
using cgrx::util::Timer;

struct CastCell {
  const char* traversal;
  const char* order;
  double casts_per_sec;
  double nodes_per_ray;
};

/// The first ray a lookup of `key` fires: RepScene's +x ray along the
/// key's row, from the key's grid cell.
Ray FirstRay(const cgrx::util::KeyMapping& mapping, std::uint64_t key) {
  const auto g = mapping.GridOf(key);
  Ray ray;
  ray.origin = {mapping.WorldX(g.x) - 0.5f, mapping.WorldY(g.y),
                mapping.WorldZ(g.z)};
  ray.direction = {1, 0, 0};
  ray.t_min = 0;
  ray.t_max = static_cast<float>(mapping.x_max() - g.x) + 1.0f;
  return ray;
}

/// Times one pass of `cast` over `rays`, then counts nodes in a second,
/// untimed pass.
template <typename Cast>
CastCell MeasureCasts(const char* traversal, const char* order,
                      const std::vector<Ray>& rays, Cast&& cast) {
  Timer timer;
  for (const Ray& ray : rays) cast(ray, nullptr);
  const double seconds = timer.ElapsedSeconds();
  TraversalStats stats;
  for (const Ray& ray : rays) cast(ray, &stats);
  const auto n = static_cast<double>(rays.size());
  return {traversal, order, n / seconds,
          static_cast<double>(stats.nodes_visited) / n};
}

double MeasureLookups(const CgrxIndex64& index,
                      const std::vector<std::uint64_t>& probes,
                      std::vector<LookupResult>* results,
                      const ExecutionPolicy& policy) {
  Timer timer;
  index.PointLookupBatch(probes.data(), probes.size(), results->data(),
                         policy);
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(probes.size()) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_keys = 10'000'000;
  std::size_t num_lookups = 2'000'000;
  std::string out_file = "BENCH_traversal.json";
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
    } else if (arg == "--out") {
      out_file = next();
    } else if (arg == "--out_dir") {
      out_dir = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--keys N] [--lookups M] [--out FILE] "
                   "[--out_dir DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (num_keys == 0 || num_lookups == 0) {
    std::fprintf(stderr, "--keys and --lookups must be positive\n");
    return 2;
  }
  const std::string out_path = cgrx::bench::OutputPath::Resolve(out_file,
                                                                out_dir);

  Rng rng(0xb0c4e7);
  std::vector<std::uint64_t> keys(num_keys);
  for (auto& k : keys) k = rng();

  std::printf("building cgRX over %zu uniform uint64 keys...\n", num_keys);
  Timer build_timer;
  CgrxIndex64 index{CgrxConfig{}};
  index.Build(keys);
  const double build_seconds = build_timer.ElapsedSeconds();
  std::printf("build: %.2fs, %zu buckets, footprint %.1f MiB\n",
              build_seconds, index.num_buckets(),
              static_cast<double>(index.MemoryFootprintBytes()) /
                  (1024.0 * 1024.0));

  // Hit-only probe workload (the paper's recommended lookup scenario),
  // drawn uniformly from the key set, in random (incoherent) order.
  std::vector<std::uint64_t> probes(num_lookups);
  for (auto& p : probes) p = keys[rng.Below(num_keys)];
  std::vector<LookupResult> results(num_lookups);

  // Binary MemoryBytes() includes the packed prim-index array; the wide
  // structure shares that array, so report both its node-only bytes
  // and its resident bytes (nodes + shared prim array, matching
  // Scene::MemoryFootprintBytes accounting).
  const Scene& scene = index.scene();
  const std::size_t prim_index_bytes =
      scene.bvh().prim_indices().size() * sizeof(std::uint32_t);
  const std::size_t binary_bvh_bytes = scene.bvh().MemoryBytes();
  const std::size_t wide_node_bytes = scene.bvh4().MemoryBytes();
  const std::size_t wide_resident_bytes = wide_node_bytes + prim_index_bytes;

  // First rays in probe order and in the order a coherence-scheduled
  // batch fires them (the schedule is computed outside the timing).
  std::vector<std::uint64_t> sorted;
  std::vector<std::uint32_t> perm;
  cgrx::core::CoherentOrder(probes.data(), probes.size(), &sorted, &perm);
  struct Order {
    const char* name;
    std::vector<Ray> rays;
  };
  Order orders[] = {{"probe", {}}, {"coherent", {}}};
  for (Order& order : orders) order.rays.reserve(num_lookups);
  for (std::size_t i = 0; i < num_lookups; ++i) {
    orders[0].rays.push_back(FirstRay(index.mapping(), probes[i]));
    orders[1].rays.push_back(FirstRay(index.mapping(), sorted[i]));
  }
  std::vector<CastCell> cells;
  for (const Order& order : orders) {
    cells.push_back(MeasureCasts(
        "binary", order.name, order.rays,
        [&](const Ray& ray, TraversalStats* stats) {
          return scene.CastRayBinary(ray, stats);
        }));
    cells.push_back(MeasureCasts(
        "wide", order.name, order.rays,
        [&](const Ray& ray, TraversalStats* stats) {
          return scene.CastRay(ray, stats);
        }));
  }
  for (const CastCell& cell : cells) {
    std::printf("%-6s %-8s  %10.0f casts/s  %.2f nodes/ray\n",
                cell.traversal, cell.order, cell.casts_per_sec,
                cell.nodes_per_ray);
  }

  // The production path: coherence-scheduled batch lookups through the
  // index (up to five rays plus the bucket search per key).
  const auto rays_fired = [&index] {
    return index.stat_counters().rays_fired.load(std::memory_order_relaxed);
  };
  const std::uint64_t rays_before = rays_fired();
  const double serial_lookups_per_sec =
      MeasureLookups(index, probes, &results, ExecutionPolicy::Serial());
  const double rays_per_lookup =
      static_cast<double>(rays_fired() - rays_before) /
      static_cast<double>(num_lookups);
  const double parallel_lookups_per_sec =
      MeasureLookups(index, probes, &results, ExecutionPolicy::Parallel());
  std::printf(
      "PointLookupBatch  serial %10.0f lookups/s  parallel %10.0f "
      "lookups/s  %.2f rays/lookup\n",
      serial_lookups_per_sec, parallel_lookups_per_sec, rays_per_lookup);

  const double node_ratio = static_cast<double>(wide_node_bytes) /
                            static_cast<double>(binary_bvh_bytes);
  const double resident_ratio = static_cast<double>(wide_resident_bytes) /
                                static_cast<double>(binary_bvh_bytes);
  std::printf("bvh bytes: binary %zu, wide nodes %zu (%.0f%%), wide "
              "resident %zu (%.0f%%)\n",
              binary_bvh_bytes, wide_node_bytes, node_ratio * 100.0,
              wide_resident_bytes, resident_ratio * 100.0);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"traversal\",\n");
  std::fprintf(out, "  \"index\": \"cgrx\",\n");
  std::fprintf(out, "  \"key_bits\": 64,\n");
  std::fprintf(out, "  \"keys\": %zu,\n", num_keys);
  std::fprintf(out, "  \"lookups\": %zu,\n", num_lookups);
  std::fprintf(out, "  \"build_seconds\": %.3f,\n", build_seconds);
  std::fprintf(out, "  \"first_ray_casts\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CastCell& cell = cells[i];
    std::fprintf(out,
                 "    {\"traversal\": \"%s\", \"order\": \"%s\", "
                 "\"casts_per_sec\": %.0f, \"nodes_per_ray\": %.3f}%s\n",
                 cell.traversal, cell.order, cell.casts_per_sec,
                 cell.nodes_per_ray, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"point_lookup_batch\": {\"serial_lookups_per_sec\": %.0f, "
               "\"parallel_lookups_per_sec\": %.0f, "
               "\"rays_per_lookup\": %.4f},\n",
               serial_lookups_per_sec, parallel_lookups_per_sec,
               rays_per_lookup);
  std::fprintf(out,
               "  \"bvh_memory_bytes\": {\"binary\": %zu, "
               "\"wide_nodes\": %zu, \"wide_resident\": %zu, "
               "\"ratio\": %.4f, \"resident_ratio\": %.4f}\n",
               binary_bvh_bytes, wide_node_bytes, wide_resident_bytes,
               node_ratio, resident_ratio);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
