// Equivalence suite for the wide (Bvh4) traversal that every lookup ray
// takes, against the binary BVH it is built from, kept as the reference
// oracle: identical closest hits and identical collect-all hit sets
// across both scene representations, flipping on/off, and post-Refit
// scenes; lookups of cgRX, cgRXu and RX against a
// std::multimap oracle; the Bvh4 compression guarantee; and the
// coherent, pipelined batch contract (batches answer and count like
// per-key lookups).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/execution_policy.h"
#include "src/core/cgrx_index.h"
#include "src/core/cgrxu_index.h"
#include "src/rt/bvh4.h"
#include "src/rt/scene.h"
#include "src/rt/wide_slab.h"
#include "src/rx/rx_index.h"
#include "src/util/rng.h"
#include "src/util/task_scheduler.h"

namespace cgrx {
namespace {

using ::cgrx::core::CgrxConfig;
using ::cgrx::core::CgrxIndex64;
using ::cgrx::core::CgrxuConfig;
using ::cgrx::core::CgrxuIndex64;
using ::cgrx::core::KeyRange;
using ::cgrx::core::LookupResult;
using ::cgrx::core::Representation;
using ::cgrx::rt::Hit;
using ::cgrx::rt::Ray;
using ::cgrx::rt::Scene;
using ::cgrx::rt::Vec3f;
using ::cgrx::rx::RxConfig;
using ::cgrx::rx::RxIndex64;
using ::cgrx::util::Rng;

// Compares closest-hit and collect-all results of the wide traversal
// with the binary oracle for one ray. Collect-all order is
// traversal-dependent, so hit sets are compared sorted by primitive
// index.
void ExpectMatchesBinaryOracle(const Scene& scene, const Ray& ray) {
  const std::optional<Hit> binary = scene.CastRayBinary(ray);
  const std::optional<Hit> wide = scene.CastRay(ray);
  ASSERT_EQ(binary.has_value(), wide.has_value());
  if (binary.has_value()) {
    EXPECT_EQ(binary->primitive_index, wide->primitive_index);
    EXPECT_EQ(binary->t, wide->t);
    EXPECT_EQ(binary->front_face, wide->front_face);
  }

  std::vector<Hit> all_binary;
  std::vector<Hit> all_wide;
  scene.CastRayCollectAllBinary(ray, &all_binary);
  scene.CastRayCollectAll(ray, &all_wide);
  auto by_prim = [](const Hit& a, const Hit& b) {
    return a.primitive_index < b.primitive_index;
  };
  std::sort(all_binary.begin(), all_binary.end(), by_prim);
  std::sort(all_wide.begin(), all_wide.end(), by_prim);
  ASSERT_EQ(all_binary.size(), all_wide.size());
  for (std::size_t i = 0; i < all_binary.size(); ++i) {
    EXPECT_EQ(all_binary[i].primitive_index, all_wide[i].primitive_index);
    EXPECT_EQ(all_binary[i].t, all_wide[i].t);
    EXPECT_EQ(all_binary[i].front_face, all_wide[i].front_face);
  }
}

// Probes a scene with +x, +y and +z rays through random points of its
// bounds, comparing the wide traversal with the binary oracle on every
// cast.
void ProbeScene(const Scene& scene, Rng* rng, int probes) {
  if (scene.triangle_count() == 0) return;
  // Bounding region of the scene's active triangles.
  rt::Aabb bounds;
  for (std::uint32_t i = 0; i < scene.triangle_count(); ++i) {
    if (!scene.soup().IsActive(i)) continue;
    bounds.Grow(scene.soup().BoundsOf(i));
  }
  if (bounds.IsEmpty()) return;
  const Vec3f extent = bounds.Extent();
  for (int p = 0; p < probes; ++p) {
    const float fx =
        bounds.min.x + extent.x * static_cast<float>(rng->NextDouble());
    const float fy =
        bounds.min.y + extent.y * static_cast<float>(rng->NextDouble());
    const float fz =
        bounds.min.z + extent.z * static_cast<float>(rng->NextDouble());
    for (int axis = 0; axis < 3; ++axis) {
      Ray ray;
      ray.origin = {axis == 0 ? bounds.min.x - 1 : fx,
                    axis == 1 ? bounds.min.y - 1 : fy,
                    axis == 2 ? bounds.min.z - 1 : fz};
      ray.direction = {axis == 0 ? 1.0f : 0.0f, axis == 1 ? 1.0f : 0.0f,
                       axis == 2 ? 1.0f : 0.0f};
      ray.t_min = 0;
      ray.t_max = (axis == 0 ? extent.x : axis == 1 ? extent.y : extent.z) + 2;
      ExpectMatchesBinaryOracle(scene, ray);
    }
  }
}

std::vector<std::uint64_t> RandomKeys(std::size_t n, std::uint64_t space,
                                      Rng* rng) {
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng->Below(space);
  return keys;
}

// `n` random keys below `space` that are not in `*taken` yet (and are
// added to it), so erase and insert sets stay disjoint and each erase
// has exactly one instance to remove.
std::vector<std::uint64_t> FreshKeys(std::size_t n, std::uint64_t space,
                                     Rng* rng, std::set<std::uint64_t>* taken) {
  std::vector<std::uint64_t> keys;
  while (keys.size() < n) {
    const std::uint64_t k = rng->Below(space);
    if (taken->insert(k).second) keys.push_back(k);
  }
  return keys;
}

/// Multimap oracle of an index's (key, rowID) contents.
class Oracle {
 public:
  void Insert(const std::vector<std::uint64_t>& keys,
              const std::vector<std::uint32_t>& rows) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      entries_.emplace(keys[i], rows[i]);
    }
  }

  void Erase(const std::vector<std::uint64_t>& keys) {
    for (const std::uint64_t k : keys) {
      const auto it = entries_.find(k);
      if (it != entries_.end()) entries_.erase(it);
    }
  }

  LookupResult Range(std::uint64_t lo, std::uint64_t hi) const {
    LookupResult r;
    for (auto it = entries_.lower_bound(lo);
         it != entries_.end() && it->first <= hi; ++it) {
      r.Accumulate(it->second);
    }
    return r;
  }

 private:
  std::multimap<std::uint64_t, std::uint32_t> entries_;
};

std::vector<std::uint32_t> Positions(std::size_t n) {
  std::vector<std::uint32_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = static_cast<std::uint32_t>(i);
  return rows;
}

// Point lookups of `probes` (serial batch) must answer as the oracle.
template <typename Index>
void ExpectPointLookupsMatchOracle(const Index& index, const Oracle& oracle,
                                   const std::vector<std::uint64_t>& probes) {
  std::vector<LookupResult> results(probes.size());
  index.PointLookupBatch(probes.data(), probes.size(), results.data(),
                         api::ExecutionPolicy::Serial());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(results[i], oracle.Range(probes[i], probes[i])) << probes[i];
    if (!results[i].IsMiss()) ++hits;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, probes.size());
}

// ---------------------------------------------------------------------
// Raw traversal equivalence on cgRX scenes over every representation /
// flipping combination.
// ---------------------------------------------------------------------

TEST(Bvh4Equivalence, RepresentationsAndFlipping) {
  Rng rng(7);
  const std::vector<std::uint64_t> keys =
      RandomKeys(6000, 1ULL << 23, &rng);  // Example-mapping key space.
  for (const Representation representation :
       {Representation::kNaive, Representation::kOptimized}) {
    for (const bool flipping : {false, true}) {
      CgrxConfig config;
      config.bucket_size = 8;
      config.representation = representation;
      config.enable_flipping = flipping;
      config.mapping_override = util::KeyMapping::Example();
      CgrxIndex64 index(config);
      index.Build(keys);
      SCOPED_TRACE(testing::Message()
                   << "representation=" << static_cast<int>(representation)
                   << " flipping=" << flipping);
      Rng probe_rng(13);
      ProbeScene(index.scene(), &probe_rng, 60);
    }
  }
}

// ---------------------------------------------------------------------
// Index-level checks: the scene each raytracing index builds (and
// updates) traverses like the binary oracle, and its lookups answer as
// a std::multimap oracle.
// ---------------------------------------------------------------------

TEST(Bvh4Equivalence, CgrxLookupsMatchBinaryEngine) {
  Rng rng(11);
  const std::vector<std::uint64_t> keys = RandomKeys(20000, 1ULL << 40, &rng);
  CgrxConfig config;
  config.bucket_size = 16;
  CgrxIndex64 index(config);
  index.Build(keys);
  Oracle oracle;
  oracle.Insert(keys, Positions(keys.size()));
  Rng probe_rng(13);
  ProbeScene(index.scene(), &probe_rng, 40);

  std::vector<std::uint64_t> probes = keys;
  probes.resize(4000);
  for (int i = 0; i < 4000; ++i) probes.push_back(rng.Below(1ULL << 41));
  ExpectPointLookupsMatchOracle(index, oracle, probes);

  std::vector<KeyRange<std::uint64_t>> ranges;
  for (int i = 0; i < 1500; ++i) {
    const std::uint64_t lo = rng.Below(1ULL << 40);
    ranges.push_back({lo, lo + rng.Below(1ULL << 20)});
  }
  std::vector<LookupResult> results(ranges.size());
  index.RangeLookupBatch(ranges.data(), ranges.size(), results.data(),
                         api::ExecutionPolicy::Serial());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    ASSERT_EQ(results[i], oracle.Range(ranges[i].lo, ranges[i].hi)) << i;
  }
}

TEST(Bvh4Equivalence, CgrxuLookupsMatchBinaryEngine) {
  Rng rng(17);
  std::set<std::uint64_t> taken;
  const std::vector<std::uint64_t> keys =
      FreshKeys(12000, 1ULL << 36, &rng, &taken);
  CgrxuIndex64 index;
  index.Build(keys);
  Oracle oracle;
  oracle.Insert(keys, Positions(keys.size()));

  // An update wave (splits, deletions) leaves the BVH untouched but
  // stresses the located buckets.
  const std::vector<std::uint64_t> inserts =
      FreshKeys(4000, 1ULL << 36, &rng, &taken);
  const std::vector<std::uint32_t> insert_rows(inserts.size(), 1);
  const std::vector<std::uint64_t> deletes(keys.begin(), keys.begin() + 2000);
  index.UpdateBatch(inserts, insert_rows, deletes);
  oracle.Erase(deletes);
  oracle.Insert(inserts, insert_rows);
  Rng probe_rng(19);
  ProbeScene(index.rep_scene().scene(), &probe_rng, 40);

  std::vector<std::uint64_t> probes(keys.begin(), keys.begin() + 3000);
  probes.insert(probes.end(), inserts.begin(), inserts.begin() + 1500);
  for (int i = 0; i < 1500; ++i) probes.push_back(rng.Below(1ULL << 37));
  ExpectPointLookupsMatchOracle(index, oracle, probes);
}

// ---------------------------------------------------------------------
// Post-Refit equivalence: refitted (inflated) bounds must traverse
// identically, including deactivated slots and parked-slot activation.
// ---------------------------------------------------------------------

TEST(Bvh4Equivalence, RxRefitScenesMatchBinaryEngine) {
  Rng rng(23);
  std::set<std::uint64_t> taken;
  const std::vector<std::uint64_t> keys =
      FreshKeys(8000, 1ULL << 30, &rng, &taken);
  RxConfig config;
  config.spare_capacity = 0.3;
  RxIndex64 index(config);
  index.Build(keys);
  Oracle oracle;
  oracle.Insert(keys, Positions(keys.size()));

  // Refit wave 1: inserts activate parked slots far from their leaves.
  const std::vector<std::uint64_t> inserts =
      FreshKeys(1500, 1ULL << 30, &rng, &taken);
  const std::vector<std::uint32_t> insert_rows(inserts.size(), 9);
  index.InsertBatchRefit(inserts, insert_rows);
  oracle.Insert(inserts, insert_rows);
  Rng probe_rng(29);
  ProbeScene(index.scene(), &probe_rng, 40);

  // Refit wave 2: deletions degenerate slots in place.
  const std::vector<std::uint64_t> deletes(keys.begin(), keys.begin() + 1500);
  index.EraseBatchRefit(deletes);
  oracle.Erase(deletes);
  ProbeScene(index.scene(), &probe_rng, 40);

  // Lookups in the post-refit state: erased, kept, inserted and random
  // keys.
  std::vector<std::uint64_t> probes(keys.begin(), keys.begin() + 3000);
  probes.insert(probes.end(), inserts.begin(), inserts.end());
  for (int i = 0; i < 1500; ++i) probes.push_back(rng.Below(1ULL << 31));
  ExpectPointLookupsMatchOracle(index, oracle, probes);
}

TEST(Bvh4Equivalence, SceneRefitAfterVertexMoves) {
  Rng rng(31);
  Scene scene;
  for (int i = 0; i < 3000; ++i) {
    const float x = static_cast<float>(rng.Below(1024));
    const float y = static_cast<float>(rng.Below(64));
    const float z = static_cast<float>(rng.Below(16));
    const Vec3f o0{x, y + 0.25f, z - 0.25f};
    const Vec3f o1{x + 0.25f, y - 0.25f, z};
    const Vec3f o2{x - 0.25f, y, z + 0.25f};
    scene.AddTriangle(o0, o1, o2);
  }
  scene.Build();
  // Move a third of the triangles (inflating leaf bounds), deactivate a
  // few, then refit.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.Below(1024));
    const float y = static_cast<float>(rng.Below(64));
    scene.SetTriangle(i * 3, {x, y + 0.25f, 0}, {x + 0.25f, y - 0.25f, 0.5f},
                      {x - 0.25f, y, 1.0f});
  }
  for (std::uint32_t i = 0; i < 200; ++i) {
    scene.SetDegenerateTriangle(i * 7 + 1);
  }
  scene.Refit();
  Rng probe_rng(37);
  ProbeScene(scene, &probe_rng, 80);
}

// ---------------------------------------------------------------------
// Compression: the wide structure must be substantially smaller than
// the binary structure it replaces.
// ---------------------------------------------------------------------

TEST(Bvh4, NodeMemoryAtMost60PercentOfBinary) {
  Rng rng(41);
  const std::vector<std::uint64_t> keys = RandomKeys(200000, 1ULL << 44, &rng);
  CgrxConfig config;
  config.bucket_size = 32;
  CgrxIndex64 index(config);
  index.Build(keys);
  const Scene& scene = index.scene();
  EXPECT_GT(scene.bvh4().MemoryBytes(), 0u);
  EXPECT_LE(static_cast<double>(scene.bvh4().MemoryBytes()),
            0.6 * static_cast<double>(scene.bvh().MemoryBytes()));
  // The wide structure lookups traverse is what the scene footprint
  // reports: wide nodes plus the primitive index array shared with the
  // binary build substrate.
  EXPECT_EQ(scene.MemoryFootprintBytes(),
            scene.soup().MemoryBytes() + scene.bvh4().MemoryBytes() +
                scene.bvh().prim_indices().size() * sizeof(std::uint32_t));
}

// ---------------------------------------------------------------------
// Shared-context casts: CastRayInto reusing one TraversalContext across
// many rays (how batch lookups cast) must agree with CastRay, on hits
// and on misses.
// ---------------------------------------------------------------------

TEST(SceneBatch, CastRayIntoWithSharedContextMatchesCastRay) {
  Rng rng(53);
  CgrxConfig config;
  config.bucket_size = 8;
  config.mapping_override = util::KeyMapping::Example();
  CgrxIndex64 index(config);
  index.Build(RandomKeys(4000, 1ULL << 23, &rng));
  const Scene& scene = index.scene();
  const auto& mapping = index.mapping();

  // Guaranteed hits: full-row rays along bucket-representative rows;
  // near-guaranteed misses: rays along random (mostly empty) rows.
  std::vector<Ray> rays;
  const std::size_t rep_rays =
      std::min<std::size_t>(250, index.num_buckets());
  for (std::size_t b = 0; b < rep_rays; ++b) {
    const auto g = mapping.GridOf(
        static_cast<std::uint64_t>(index.buckets().RepKey(b)));
    Ray ray;
    ray.origin = {mapping.WorldX(0) - 0.5f, mapping.WorldY(g.y),
                  mapping.WorldZ(g.z)};
    ray.direction = {1, 0, 0};
    ray.t_min = 0;
    ray.t_max = static_cast<float>(mapping.x_max()) + 2.0f;
    rays.push_back(ray);
  }
  for (int i = 0; i < 250; ++i) {
    const auto g = mapping.GridOf(rng.Below(1ULL << 23));
    Ray ray;
    ray.origin = {mapping.WorldX(g.x) - 0.5f, mapping.WorldY(g.y),
                  mapping.WorldZ(g.z)};
    ray.direction = {1, 0, 0};
    ray.t_min = 0;
    ray.t_max = 0.25f;
    rays.push_back(ray);
  }

  rt::TraversalContext ctx;
  rt::TraversalStats shared_stats;
  rt::TraversalStats single_stats;
  std::size_t hit_count = 0;
  for (const Ray& ray : rays) {
    Hit hit;
    const bool found = scene.CastRayInto(ray, &hit, &ctx, &shared_stats);
    const std::optional<Hit> single = scene.CastRay(ray, &single_stats);
    ASSERT_EQ(found, single.has_value());
    if (found) {
      ++hit_count;
      EXPECT_EQ(hit.primitive_index, single->primitive_index);
      EXPECT_EQ(hit.t, single->t);
      EXPECT_EQ(hit.front_face, single->front_face);
    }
  }
  EXPECT_GT(shared_stats.nodes_visited, 0u);
  EXPECT_EQ(shared_stats.nodes_visited, single_stats.nodes_visited);
  EXPECT_EQ(shared_stats.triangle_tests, single_stats.triangle_tests);
  EXPECT_GT(hit_count, 0u);
  EXPECT_LT(hit_count, rays.size());
}

// ---------------------------------------------------------------------
// Coherent scheduling: a batch of at least kCoherentBatchMin lookups
// runs in sorted key order; the same lookups fed in sub-threshold
// chunks run in batch order. The reordering must be invisible in the
// results and in the rays fired, for every raytracing index and for
// serial and parallel policies alike.
// ---------------------------------------------------------------------

// `lookup(items, count, results, policy)` over all of `items` at once,
// serial and parallel, against the same items in serial sub-threshold
// chunks.
template <typename Index, typename Item, typename Lookup>
void ExpectSortedBatchMatchesChunks(const Index& index,
                                    const std::vector<Item>& items,
                                    Lookup&& lookup) {
  ASSERT_GE(items.size(), core::kCoherentBatchMin);
  const auto rays = [&index] {
    return index.stat_counters().rays_fired.load(std::memory_order_relaxed);
  };
  std::uint64_t before = rays();
  std::vector<LookupResult> chunked(items.size());
  for (std::size_t begin = 0; begin < items.size();
       begin += core::kCoherentBatchMin - 1) {
    lookup(items.data() + begin,
           std::min(core::kCoherentBatchMin - 1, items.size() - begin),
           chunked.data() + begin, api::ExecutionPolicy::Serial());
  }
  const std::uint64_t chunked_rays = rays() - before;
  for (const api::ExecutionPolicy policy :
       {api::ExecutionPolicy::Serial(), api::ExecutionPolicy::Parallel()}) {
    SCOPED_TRACE(policy.serial() ? "serial" : "parallel");
    before = rays();
    std::vector<LookupResult> whole(items.size());
    lookup(items.data(), items.size(), whole.data(), policy);
    EXPECT_EQ(whole, chunked);
    EXPECT_EQ(rays() - before, chunked_rays);
  }
}

template <typename Index>
void ExpectCoherentBatchesMatchChunks(
    const Index& index, const std::vector<std::uint64_t>& probes,
    const std::vector<KeyRange<std::uint64_t>>& ranges) {
  {
    SCOPED_TRACE("point");
    ExpectSortedBatchMatchesChunks(
        index, probes,
        [&index](const std::uint64_t* keys, std::size_t count,
                 LookupResult* out, const api::ExecutionPolicy& policy) {
          index.PointLookupBatch(keys, count, out, policy);
        });
  }
  {
    SCOPED_TRACE("range");
    ExpectSortedBatchMatchesChunks(
        index, ranges,
        [&index](const KeyRange<std::uint64_t>* first, std::size_t count,
                 LookupResult* out, const api::ExecutionPolicy& policy) {
          index.RangeLookupBatch(first, count, out, policy);
        });
  }
}

std::vector<KeyRange<std::uint64_t>> RandomRanges(std::size_t n,
                                                  std::uint64_t space,
                                                  std::uint64_t width,
                                                  Rng* rng) {
  std::vector<KeyRange<std::uint64_t>> ranges;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t lo = rng->Below(space);
    ranges.push_back({lo, lo + rng->Below(width)});
  }
  return ranges;
}

TEST(CoherentBatches, CgrxSortedBatchesMatchSubThresholdChunks) {
  Rng rng(43);
  const std::vector<std::uint64_t> keys = RandomKeys(30000, 1ULL << 42, &rng);
  CgrxIndex64 index;
  index.Build(keys);
  // Large enough that a parallel policy also computes the schedule
  // itself (perm init, max reduction, radix passes) on the scheduler.
  std::vector<std::uint64_t> probes = keys;
  for (int i = 0; i < 6000; ++i) probes.push_back(rng.Below(1ULL << 43));
  ASSERT_GE(probes.size(), core::kCoherentParallelMin);
  ExpectCoherentBatchesMatchChunks(
      index, probes, RandomRanges(2000, 1ULL << 42, 1ULL << 18, &rng));
}

// A serial policy keeps its own batch on the calling thread and nothing
// else: while serial batches sort and run, another thread's ParallelFor,
// TaskGroup or scene rebuild must still reach the scheduler.
TEST(CoherentBatches, SerialPolicyNeverSerializesOtherThreads) {
  Rng rng(67);
  const std::vector<std::uint64_t> keys =
      RandomKeys(1 << 16, 1ULL << 42, &rng);
  CgrxIndex64 index;
  index.Build(keys);
  std::vector<std::uint64_t> probes;
  for (int i = 0; i < 8192; ++i) probes.push_back(keys[rng.Below(keys.size())]);
  ASSERT_GE(probes.size(), core::kCoherentBatchMin);
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::uint64_t forced = 0;
  std::thread observer([&] {
    started.store(true, std::memory_order_release);
    do {
      ++polls;
      if (util::TaskScheduler::SerialForced()) ++forced;
    } while (!done.load(std::memory_order_acquire));
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::vector<LookupResult> results(probes.size());
  for (int batch = 0; batch < 20; ++batch) {
    index.PointLookupBatch(probes.data(), probes.size(), results.data(),
                           api::ExecutionPolicy::Serial());
  }
  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(forced, 0u) << "of " << polls << " polls";
}

// ---------------------------------------------------------------------
// Wide slab test on a hand-built node: a real child hits exactly when
// the ray passes through its box, and a refit-emptied child (qlo > qhi)
// or a lane past num_children never contributes to the mask.
// ---------------------------------------------------------------------

TEST(WideSlab, HandlesEmptyMarkedAndPartialNodes) {
  // Two real children, one refit-emptied (qlo > qhi), one absent
  // (num_children = 3).
  rt::Bvh4::Node node{};
  node.origin = {0, 0, 0};
  for (int axis = 0; axis < 3; ++axis) node.exp[axis] = 127;  // Scale 1.
  node.num_children = 3;
  for (int axis = 0; axis < 3; ++axis) {
    node.qlo[axis][0] = 0;
    node.qhi[axis][0] = 10;
    node.qlo[axis][1] = 20;
    node.qhi[axis][1] = 30;
    node.qlo[axis][2] = 1;  // Inverted: refit-emptied child.
    node.qhi[axis][2] = 0;
    node.qlo[axis][3] = 0;  // Absent lane, deliberately "hittable".
    node.qhi[axis][3] = 255;
  }
  const float scale[3] = {1, 1, 1};
  Rng rng(67);
  int real_hits = 0;
  for (int probe = 0; probe < 400; ++probe) {
    const double oa = rng.NextDouble() * 40 - 5;
    const double ou = rng.NextDouble() * 40 - 5;
    const double ov = rng.NextDouble() * 40 - 5;
    double t_entry[rt::Bvh4::kWidth];
    const int mask = rt::detail::WideAxisChildren<1>(node, scale, oa, ou, ov,
                                                     0, 100, t_entry);
    EXPECT_EQ(mask & (1 << 2), 0);  // Emptied child never hits.
    EXPECT_EQ(mask & (1 << 3), 0);  // Absent lane never hits.
    // Children 0 and 1 span [0, 10] and [20, 30] on every axis.
    for (int c = 0; c < 2; ++c) {
      const double lo = c == 0 ? 0 : 20;
      const double hi = lo + 10;
      const bool through =
          ou >= lo && ou <= hi && ov >= lo && ov <= hi && oa <= hi;
      ASSERT_EQ((mask >> c) & 1, through ? 1 : 0)
          << "child " << c << " oa=" << oa << " ou=" << ou << " ov=" << ov;
      if (through) {
        EXPECT_EQ(t_entry[c], std::max(0.0, lo - oa));
        ++real_hits;
      }
    }
  }
  EXPECT_GT(real_hits, 0);
}

// ---------------------------------------------------------------------
// Parallel build determinism: the fragment cutoff is thread-count
// independent, so a serial build and a scheduler-parallel build of the
// same soup produce byte-identical node arrays (binary and wide).
// ---------------------------------------------------------------------

TEST(ParallelBuild, SerialAndParallelBuildsAreByteIdentical) {
  Rng rng(71);
  const std::vector<std::uint64_t> keys = RandomKeys(40000, 1ULL << 38, &rng);
  CgrxConfig config;
  config.bucket_size = 16;
  CgrxIndex64 parallel_index(config);
  parallel_index.Build(keys);
  CgrxIndex64 serial_index(config);
  {
    util::TaskScheduler::SerialScope force_serial;
    serial_index.Build(keys);
  }
  const rt::Bvh& pb = parallel_index.scene().bvh();
  const rt::Bvh& sb = serial_index.scene().bvh();
  ASSERT_EQ(pb.nodes().size(), sb.nodes().size());
  for (std::size_t i = 0; i < pb.nodes().size(); ++i) {
    ASSERT_EQ(std::memcmp(&pb.nodes()[i], &sb.nodes()[i],
                          sizeof(rt::Bvh::Node)),
              0)
        << "node " << i;
  }
  ASSERT_EQ(pb.prim_indices(), sb.prim_indices());
  const rt::Bvh4& p4 = parallel_index.scene().bvh4();
  const rt::Bvh4& s4 = serial_index.scene().bvh4();
  ASSERT_EQ(p4.nodes().size(), s4.nodes().size());
  for (std::size_t i = 0; i < p4.nodes().size(); ++i) {
    // Field-wise (the 64-byte node has tail padding memcmp would trip
    // on).
    const rt::Bvh4::Node& p = p4.nodes()[i];
    const rt::Bvh4::Node& s = s4.nodes()[i];
    ASSERT_EQ(p.num_children, s.num_children) << "wide node " << i;
    ASSERT_EQ(p.origin.x, s.origin.x) << "wide node " << i;
    ASSERT_EQ(p.origin.y, s.origin.y) << "wide node " << i;
    ASSERT_EQ(p.origin.z, s.origin.z) << "wide node " << i;
    for (int axis = 0; axis < 3; ++axis) {
      ASSERT_EQ(p.exp[axis], s.exp[axis]) << "wide node " << i;
      for (int c = 0; c < rt::Bvh4::kWidth; ++c) {
        ASSERT_EQ(p.qlo[axis][c], s.qlo[axis][c]) << "wide node " << i;
        ASSERT_EQ(p.qhi[axis][c], s.qhi[axis][c]) << "wide node " << i;
      }
    }
    for (int c = 0; c < rt::Bvh4::kWidth; ++c) {
      ASSERT_EQ(p.count[c], s.count[c]) << "wide node " << i;
      ASSERT_EQ(p.child[c], s.child[c]) << "wide node " << i;
    }
  }
}

// Same property above the parallel-split threshold: with > 2^16
// primitives the top SAH splits take the parallel
// reduction/histogram/stable-partition path, which must partition
// exactly like the serial (stable) path for the node arrays to stay
// byte-identical.
TEST(ParallelBuild, LargeSahBuildCrossesParallelSplitThreshold) {
  Rng rng(73);
  Scene parallel_scene;
  Scene serial_scene;
  for (int i = 0; i < 70000; ++i) {
    const float x = static_cast<float>(rng.Below(4096));
    const float y = static_cast<float>(rng.Below(512));
    const float z = static_cast<float>(rng.Below(64));
    const Vec3f v0{x, y + 0.25f, z - 0.25f};
    const Vec3f v1{x + 0.25f, y - 0.25f, z};
    const Vec3f v2{x - 0.25f, y, z + 0.25f};
    parallel_scene.AddTriangle(v0, v1, v2);
    serial_scene.AddTriangle(v0, v1, v2);
  }
  parallel_scene.Build();
  {
    util::TaskScheduler::SerialScope force_serial;
    serial_scene.Build();
  }
  const rt::Bvh& pb = parallel_scene.bvh();
  const rt::Bvh& sb = serial_scene.bvh();
  ASSERT_EQ(pb.nodes().size(), sb.nodes().size());
  for (std::size_t i = 0; i < pb.nodes().size(); ++i) {
    ASSERT_EQ(std::memcmp(&pb.nodes()[i], &sb.nodes()[i],
                          sizeof(rt::Bvh::Node)),
              0)
        << "node " << i;
  }
  ASSERT_EQ(pb.prim_indices(), sb.prim_indices());
}

// The binary Refit's level-parallel sweep (nodes bucketed by depth,
// levels processed bottom-up with every node of a level concurrent)
// must refit to exactly the serial reverse sweep's bytes: each node's
// bounds come from the same children/prims through the same float ops,
// whatever the thread count.
TEST(ParallelRefit, LevelParallelRefitIsByteIdenticalToSerial) {
  Rng rng(77);
  Scene parallel_scene;
  Scene serial_scene;
  const int kTriangles = 150000;  // Enough nodes to cross the
                                  // parallel-refit threshold.
  for (int i = 0; i < kTriangles; ++i) {
    const float x = static_cast<float>(rng.Below(8192));
    const float y = static_cast<float>(rng.Below(1024));
    const float z = static_cast<float>(rng.Below(64));
    const Vec3f v0{x, y + 0.25f, z - 0.25f};
    const Vec3f v1{x + 0.25f, y - 0.25f, z};
    const Vec3f v2{x - 0.25f, y, z + 0.25f};
    parallel_scene.AddTriangle(v0, v1, v2);
    serial_scene.AddTriangle(v0, v1, v2);
  }
  // Identical topology in both scenes (builds are byte-identical per
  // the tests above; build serial to make that independent here).
  {
    util::TaskScheduler::SerialScope force_serial;
    parallel_scene.Build();
    serial_scene.Build();
  }
  ASSERT_GE(parallel_scene.bvh().nodes().size(), std::size_t{1} << 16)
      << "test scene too small to exercise the level-parallel sweep";
  // Mutate vertex data the way RX updates do: move some triangles,
  // degenerate others.
  for (int i = 0; i < kTriangles; i += 17) {
    const auto slot = static_cast<std::uint32_t>(i);
    if (i % 51 == 0) {
      parallel_scene.SetDegenerateTriangle(slot);
      serial_scene.SetDegenerateTriangle(slot);
      continue;
    }
    const float x = static_cast<float>(rng.Below(8192));
    const float y = static_cast<float>(rng.Below(1024));
    const Vec3f v0{x, y + 0.25f, 0.75f};
    const Vec3f v1{x + 0.25f, y - 0.25f, 1.0f};
    const Vec3f v2{x - 0.25f, y, 1.25f};
    parallel_scene.SetTriangle(slot, v0, v1, v2);
    serial_scene.SetTriangle(slot, v0, v1, v2);
  }
  parallel_scene.Refit();
  {
    util::TaskScheduler::SerialScope force_serial;
    serial_scene.Refit();
  }
  const rt::Bvh& pb = parallel_scene.bvh();
  const rt::Bvh& sb = serial_scene.bvh();
  ASSERT_EQ(pb.nodes().size(), sb.nodes().size());
  for (std::size_t i = 0; i < pb.nodes().size(); ++i) {
    ASSERT_EQ(std::memcmp(&pb.nodes()[i], &sb.nodes()[i],
                          sizeof(rt::Bvh::Node)),
              0)
        << "refit node " << i;
  }
}

TEST(CoherentBatches, RxAndCgrxuSortedBatchesMatchSubThresholdChunks) {
  Rng rng(47);
  const std::vector<std::uint64_t> keys = RandomKeys(20000, 1ULL << 34, &rng);
  std::vector<std::uint64_t> probes(keys.begin(), keys.begin() + 4000);
  for (int i = 0; i < 2000; ++i) probes.push_back(rng.Below(1ULL << 35));
  const std::vector<KeyRange<std::uint64_t>> ranges =
      RandomRanges(1500, 1ULL << 34, 1ULL << 12, &rng);
  {
    SCOPED_TRACE("rx");
    RxIndex64 index;
    index.Build(keys);
    ExpectCoherentBatchesMatchChunks(index, probes, ranges);
  }
  {
    SCOPED_TRACE("cgrxu");
    CgrxuIndex64 index;
    index.Build(keys);
    ExpectCoherentBatchesMatchChunks(index, probes, ranges);
  }
}

// ---------------------------------------------------------------------
// Pipelined batches: a lookup's stage 2 (the bucket post-filter) runs
// kPipelineDepth lookups after its stage 1 (rays, bucket prefetch), and
// the in-flight ring drains at the end of every chunk. At every batch
// size around the depth and the coherence threshold, and with chunks
// that are no multiple of the depth, a batch must return what the same
// probes return one key at a time, and move rays_fired, buckets_probed
// and filter_rejections by the same amounts.
// ---------------------------------------------------------------------

struct CounterValues {
  std::uint64_t rays = 0;
  std::uint64_t probed = 0;
  std::uint64_t rejected = 0;

  friend bool operator==(const CounterValues&, const CounterValues&) =
      default;
};

template <typename Index>
CounterValues ReadCounters(const Index& index) {
  const core::LookupCounters& c = index.stat_counters();
  return {c.rays_fired.load(std::memory_order_relaxed),
          c.buckets_probed.load(std::memory_order_relaxed),
          c.filter_rejections.load(std::memory_order_relaxed)};
}

CounterValues Delta(const CounterValues& before, const CounterValues& after) {
  return {after.rays - before.rays, after.probed - before.probed,
          after.rejected - before.rejected};
}

// Runs `batch(items, n, results, policy)` over the first n items for
// each edge size n and each policy, against `single(item)` applied to
// the same items one at a time.
template <typename Index, typename Item, typename Batch, typename Single>
void ExpectPipelinedBatchesMatchSingles(const Index& index,
                                        const std::vector<Item>& items,
                                        Batch&& batch, Single&& single) {
  constexpr std::size_t kDepth = core::kPipelineDepth;
  constexpr std::size_t kMin = core::kCoherentBatchMin;
  ASSERT_GE(items.size(), kMin + 1);
  // Per-item results and counter deltas, prefix-summed per batch size.
  std::vector<LookupResult> expected(items.size());
  std::vector<CounterValues> prefix(items.size() + 1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const CounterValues before = ReadCounters(index);
    expected[i] = single(items[i]);
    const CounterValues d = Delta(before, ReadCounters(index));
    prefix[i + 1] = {prefix[i].rays + d.rays, prefix[i].probed + d.probed,
                     prefix[i].rejected + d.rejected};
  }
  util::TaskScheduler scheduler(4);
  const api::ExecutionPolicy policies[] = {
      api::ExecutionPolicy::Serial(), api::ExecutionPolicy::Parallel(),
      // A grain that is no multiple of the depth leaves partly filled
      // rings at chunk ends.
      api::ExecutionPolicy::Parallel(kDepth + 3, &scheduler)};
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kDepth - 1,
                              kDepth, kDepth + 1, kMin - 1, kMin, kMin + 1}) {
    for (const api::ExecutionPolicy& policy : policies) {
      SCOPED_TRACE(testing::Message() << "batch size " << n << ", grain "
                                      << policy.grain() << ", "
                                      << (policy.serial() ? "serial"
                                                          : "parallel"));
      std::vector<LookupResult> got(n);
      const CounterValues before = ReadCounters(index);
      batch(items.data(), n, got.data(), policy);
      EXPECT_EQ(Delta(before, ReadCounters(index)), prefix[n]);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()));
    }
  }
}

// Point probes led by the edge cases, so even a one-key batch meets
// one: a key below the smallest representative (cgRX: bucket 0 without
// rays), keys above the largest key (a cgRX miss, the cgRXu overflow
// bucket), a stored key and an absent one; the rest mixes stored and
// absent keys.
std::vector<std::uint64_t> EdgePointProbes(
    const std::vector<std::uint64_t>& keys, std::uint64_t space, Rng* rng) {
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  std::vector<std::uint64_t> probes = {0,       *hi + 1, keys[7],  space + 5,
                                       *lo,     *hi,     ~0ULL,    keys[11],
                                       *lo + 1, *hi - 1, keys[13], space + 9};
  while (probes.size() < core::kCoherentBatchMin + 16) {
    probes.push_back(rng->Below(2) == 0 ? keys[rng->Below(keys.size())]
                                        : rng->Below(space));
  }
  return probes;
}

// Range probes led by the edge cases: lo > hi, lo above the largest
// key, ranges spanning several buckets (one of them starting below
// every key), and one below every key; the rest are random and narrow
// or wide. Widths stay far below the key space: RX fires one ray per
// grid row a range covers.
std::vector<KeyRange<std::uint64_t>> EdgeRangeProbes(
    const std::vector<std::uint64_t>& keys, std::uint64_t space, Rng* rng) {
  const std::uint64_t hi = *std::max_element(keys.begin(), keys.end());
  std::vector<KeyRange<std::uint64_t>> ranges = {
      {keys[3] + 1, keys[3]}, {hi + 1, hi + 1000}, {keys[5], keys[5] + space / 64},
      {0, 0},                 {0, space / 64},     {hi + 1, hi},
      {keys[9], keys[9]},     {keys[2], keys[2] + space / 256}};
  while (ranges.size() < core::kCoherentBatchMin + 16) {
    const std::uint64_t lo = rng->Below(space);
    const std::uint64_t width = rng->Below(2) == 0 ? space / 4096 : space / 256;
    ranges.push_back({lo, lo + rng->Below(width)});
  }
  return ranges;
}

template <typename Index>
void ExpectPipelinedIndexMatchesSingles(
    const Index& index, const std::vector<std::uint64_t>& probes,
    const std::vector<KeyRange<std::uint64_t>>& ranges) {
  {
    SCOPED_TRACE("point");
    ExpectPipelinedBatchesMatchSingles(
        index, probes,
        [&index](const std::uint64_t* keys, std::size_t n, LookupResult* out,
                 const api::ExecutionPolicy& policy) {
          index.PointLookupBatch(keys, n, out, policy);
        },
        [&index](std::uint64_t key) { return index.PointLookup(key); });
  }
  {
    SCOPED_TRACE("range");
    ExpectPipelinedBatchesMatchSingles(
        index, ranges,
        [&index](const KeyRange<std::uint64_t>* first, std::size_t n,
                 LookupResult* out, const api::ExecutionPolicy& policy) {
          index.RangeLookupBatch(first, n, out, policy);
        },
        [&index](const KeyRange<std::uint64_t>& r) {
          return index.RangeLookup(r.lo, r.hi);
        });
  }
}

constexpr std::uint64_t kPipelineKeySpace = 1ULL << 34;

TEST(CoherentBatches, PipelinedCgrxBatchesMatchPerKeyLookups) {
  Rng rng(53);
  const std::vector<std::uint64_t> keys =
      RandomKeys(8000, kPipelineKeySpace, &rng);
  const std::vector<std::uint64_t> probes =
      EdgePointProbes(keys, kPipelineKeySpace, &rng);
  const std::vector<KeyRange<std::uint64_t>> ranges =
      EdgeRangeProbes(keys, kPipelineKeySpace, &rng);
  for (const double filter_bits : {0.0, 10.0}) {
    SCOPED_TRACE(testing::Message() << "miss filter bits " << filter_bits);
    CgrxConfig config;
    config.miss_filter_bits_per_key = filter_bits;
    CgrxIndex64 index(config);
    index.Build(keys);
    ASSERT_LT(index.rep_scene().min_rep(), index.rep_scene().max_rep());
    ExpectPipelinedIndexMatchesSingles(index, probes, ranges);
    if (filter_bits > 0) {
      EXPECT_GT(index.stat_counters().filter_rejections.load(), 0u);
    }
  }
}

TEST(CoherentBatches, PipelinedCgrxuBatchesMatchPerKeyLookups) {
  Rng rng(59);
  const std::vector<std::uint64_t> keys =
      RandomKeys(8000, kPipelineKeySpace, &rng);
  CgrxuIndex64 index;
  index.Build(keys);
  // A wave that splits nodes inside the key range and fills the
  // overflow bucket's chain above it.
  std::vector<std::uint64_t> inserts;
  std::vector<std::uint32_t> rows;
  for (int i = 0; i < 600; ++i) {
    inserts.push_back(i % 3 == 0 ? kPipelineKeySpace + rng.Below(1 << 20)
                                 : rng.Below(kPipelineKeySpace));
    rows.push_back(static_cast<std::uint32_t>(keys.size()) + i);
  }
  index.UpdateBatch(inserts, rows, {});
  std::vector<std::uint64_t> all = keys;
  all.insert(all.end(), inserts.begin(), inserts.end());
  ExpectPipelinedIndexMatchesSingles(
      index, EdgePointProbes(all, kPipelineKeySpace, &rng),
      EdgeRangeProbes(all, kPipelineKeySpace, &rng));
}

TEST(CoherentBatches, PipelinedRxBatchesMatchPerKeyLookups) {
  Rng rng(61);
  // Fewer keys than for cgRX: an RX range ray runs along a whole grid
  // row and visits most of the BVH, so its cost grows with the key count.
  const std::vector<std::uint64_t> keys =
      RandomKeys(2000, kPipelineKeySpace, &rng);
  RxIndex64 index;
  index.Build(keys);
  ExpectPipelinedIndexMatchesSingles(
      index, EdgePointProbes(keys, kPipelineKeySpace, &rng),
      EdgeRangeProbes(keys, kPipelineKeySpace, &rng));
}

}  // namespace
}  // namespace cgrx
