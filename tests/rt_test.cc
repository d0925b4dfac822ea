// Unit and property tests for the raytracing substrate: box algebra,
// axis-ray triangle intersection (winding, clamping), the binned-SAH
// BVH's structural invariants, traversal-vs-brute-force equivalence on
// random scenes, closest-hit ordering, refit semantics (including the
// bound-inflation behaviour RX updates rely on), and the axis-ray
// precondition every cast enforces.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/rt/aabb.h"
#include "src/rt/bvh.h"
#include "src/api/execution_policy.h"
#include "src/rt/scene.h"
#include "src/util/rng.h"

namespace cgrx::rt {
namespace {

using ::cgrx::util::Rng;

// Adds a small triangle centred at (x, y, z) with the all-axes shape
// used by the indexes (front-facing for +axis rays).
std::uint32_t AddCenteredTriangle(Scene* scene, float x, float y, float z,
                                  bool flip = false, float d = 0.25f) {
  const Vec3f o0{x, y + d, z - d};
  const Vec3f o1{x + d, y - d, z};
  const Vec3f o2{x - d, y, z + d};
  return flip ? scene->AddTriangle(o0, o2, o1)
              : scene->AddTriangle(o0, o1, o2);
}

Ray AxisRay(int axis, const Vec3f& origin, float t_max) {
  Ray ray;
  ray.origin = origin;
  ray.direction = {axis == 0 ? 1.0f : 0.0f, axis == 1 ? 1.0f : 0.0f,
                   axis == 2 ? 1.0f : 0.0f};
  ray.t_min = 0;
  ray.t_max = t_max;
  return ray;
}

// ---------------------------------------------------------------------
// Aabb.
// ---------------------------------------------------------------------

TEST(Aabb, GrowAndContain) {
  Aabb box;
  EXPECT_TRUE(box.IsEmpty());
  box.Grow(Vec3f{1, 2, 3});
  box.Grow(Vec3f{-1, 5, 0});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_EQ(box.min.x, -1);
  EXPECT_EQ(box.max.y, 5);
  Aabb inner;
  inner.Grow(Vec3f{0, 3, 1});
  EXPECT_TRUE(box.Contains(inner));
  inner.Grow(Vec3f{10, 0, 0});
  EXPECT_FALSE(box.Contains(inner));
}

TEST(Aabb, SurfaceArea) {
  Aabb box;
  box.Grow(Vec3f{0, 0, 0});
  box.Grow(Vec3f{2, 3, 4});
  EXPECT_FLOAT_EQ(box.SurfaceArea(), 2.0f * (2 * 3 + 3 * 4 + 4 * 2));
  EXPECT_EQ(Aabb{}.SurfaceArea(), 0.0f);
}

// ---------------------------------------------------------------------
// Triangle intersection.
// ---------------------------------------------------------------------

TEST(Triangle, AxisRaysHitThroughCenter) {
  Scene scene;
  AddCenteredTriangle(&scene, 5, 3, 2);
  scene.Build();
  for (int axis = 0; axis < 3; ++axis) {
    Vec3f origin{5, 3, 2};
    (&origin.x)[axis] -= 1.0f;
    const auto hit = scene.CastRay(AxisRay(axis, origin, 10));
    ASSERT_TRUE(hit.has_value()) << "axis " << axis;
    EXPECT_NEAR(hit->t, 1.0, 1e-6) << "axis " << axis;
    EXPECT_TRUE(hit->front_face) << "axis " << axis;
  }
}

TEST(Triangle, FlippedTrianglePresentsBackFace) {
  Scene scene;
  AddCenteredTriangle(&scene, 5, 3, 2, /*flip=*/true);
  scene.Build();
  for (int axis = 0; axis < 3; ++axis) {
    Vec3f origin{5, 3, 2};
    (&origin.x)[axis] -= 1.0f;
    const auto hit = scene.CastRay(AxisRay(axis, origin, 10));
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->front_face) << "axis " << axis;
  }
}

TEST(Triangle, RayLengthClampExcludesTriangle) {
  Scene scene;
  AddCenteredTriangle(&scene, 5, 0, 0);
  scene.Build();
  EXPECT_TRUE(scene.CastRay(AxisRay(0, {4, 0, 0}, 1.5f)).has_value());
  EXPECT_FALSE(scene.CastRay(AxisRay(0, {4, 0, 0}, 0.5f)).has_value());
  // Behind the origin: no hit.
  EXPECT_FALSE(scene.CastRay(AxisRay(0, {6, 0, 0}, 10.0f)).has_value());
}

TEST(Triangle, OffsetRaysMissNeighbouringCells) {
  // A ray through a neighbouring grid cell must not clip a triangle
  // whose extents are half a step.
  Scene scene;
  AddCenteredTriangle(&scene, 5, 3, 2);
  scene.Build();
  EXPECT_FALSE(scene.CastRay(AxisRay(0, {0, 4, 2}, 100)).has_value());
  EXPECT_FALSE(scene.CastRay(AxisRay(0, {0, 3, 3}, 100)).has_value());
  EXPECT_FALSE(scene.CastRay(AxisRay(1, {6, 0, 2}, 100)).has_value());
  EXPECT_FALSE(scene.CastRay(AxisRay(2, {4, 3, 0}, 100)).has_value());
}

TEST(Triangle, DegenerateSlotsAreUnhittable) {
  Scene scene;
  scene.AddDegenerateTriangle();
  const std::uint32_t real = AddCenteredTriangle(&scene, 2, 0, 0);
  scene.AddDegenerateTriangle();
  scene.Build();
  const auto hit = scene.CastRay(AxisRay(0, {0, 0, 0}, 10));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->primitive_index, real);
}

// ---------------------------------------------------------------------
// BVH build: structural invariants + traversal equivalence.
// ---------------------------------------------------------------------

TEST(BvhBuild, EveryActivePrimitiveInExactlyOneLeaf) {
  Rng rng(17);
  Scene scene;
  constexpr int kTriangles = 500;
  for (int i = 0; i < kTriangles; ++i) {
    if (i % 7 == 3) {
      scene.AddDegenerateTriangle();
    } else {
      AddCenteredTriangle(&scene,
                          static_cast<float>(rng.Below(1000)),
                          static_cast<float>(rng.Below(100)),
                          static_cast<float>(rng.Below(100)));
    }
  }
  scene.Build();
  std::vector<int> seen(scene.triangle_count(), 0);
  for (const std::uint32_t p : scene.bvh().prim_indices()) seen[p]++;
  for (std::uint32_t i = 0; i < scene.triangle_count(); ++i) {
    EXPECT_EQ(seen[i], scene.soup().IsActive(i) ? 1 : 0) << "prim " << i;
  }
}

TEST(BvhBuild, ParentBoundsContainChildren) {
  Rng rng(23);
  Scene scene;
  for (int i = 0; i < 300; ++i) {
    AddCenteredTriangle(&scene, static_cast<float>(rng.Below(5000)),
                        static_cast<float>(rng.Below(50)), 0);
  }
  scene.Build();
  const auto& nodes = scene.bvh().nodes();
  for (const auto& node : nodes) {
    if (node.IsLeaf()) continue;
    EXPECT_TRUE(node.bounds.Contains(nodes[node.left_or_first].bounds));
    EXPECT_TRUE(node.bounds.Contains(nodes[node.left_or_first + 1].bounds));
  }
}

TEST(BvhBuild, LeafBoundsContainTheirTriangles) {
  Rng rng(29);
  Scene scene;
  for (int i = 0; i < 300; ++i) {
    AddCenteredTriangle(&scene, static_cast<float>(rng.Below(5000)),
                        static_cast<float>(rng.Below(50)),
                        static_cast<float>(rng.Below(8)));
  }
  scene.Build();
  const auto& bvh = scene.bvh();
  for (const auto& node : bvh.nodes()) {
    if (!node.IsLeaf()) continue;
    for (std::uint32_t i = 0; i < node.prim_count; ++i) {
      const std::uint32_t prim = bvh.prim_indices()[node.left_or_first + i];
      EXPECT_TRUE(node.bounds.Contains(scene.soup().BoundsOf(prim)));
    }
  }
}

TEST(BvhBuild, ClosestHitMatchesBruteForce) {
  Rng rng(31);
  Scene scene;
  std::vector<Vec3f> centers;
  for (int i = 0; i < 400; ++i) {
    const Vec3f c{static_cast<float>(rng.Below(200)),
                  static_cast<float>(rng.Below(40)),
                  static_cast<float>(rng.Below(10))};
    centers.push_back(c);
    AddCenteredTriangle(&scene, c.x, c.y, c.z);
  }
  scene.Build();
  // Fire x-rays through random (y, z) lines and compare against a brute
  // force over the stored centers.
  for (int q = 0; q < 300; ++q) {
    const float y = static_cast<float>(rng.Below(40));
    const float z = static_cast<float>(rng.Below(10));
    const float x0 = static_cast<float>(rng.Below(200)) - 0.5f;
    std::optional<float> best;
    std::uint32_t best_prim = 0;
    for (std::uint32_t i = 0; i < centers.size(); ++i) {
      if (centers[i].y == y && centers[i].z == z && centers[i].x > x0) {
        const float t = centers[i].x - x0;
        if (!best.has_value() || t < *best) {
          best = t;
          best_prim = i;
        }
      }
    }
    const auto hit = scene.CastRay(AxisRay(0, {x0, y, z}, 1e9f));
    ASSERT_EQ(hit.has_value(), best.has_value()) << "query " << q;
    if (hit.has_value()) {
      EXPECT_NEAR(hit->t, *best, 1e-5);
      EXPECT_EQ(hit->primitive_index, best_prim);
    }
  }
}

TEST(BvhBuild, CollectAllMatchesBruteForce) {
  Rng rng(37);
  Scene scene;
  std::vector<Vec3f> centers;
  for (int i = 0; i < 300; ++i) {
    // Deliberately duplicate-heavy positions to stress leaves full of
    // identical boxes (the RX duplicate-keys scenario).
    const Vec3f c{static_cast<float>(rng.Below(40)),
                  static_cast<float>(rng.Below(10)), 0};
    centers.push_back(c);
    AddCenteredTriangle(&scene, c.x, c.y, c.z);
  }
  scene.Build();
  for (int q = 0; q < 200; ++q) {
    const float y = static_cast<float>(rng.Below(10));
    const float x0 = static_cast<float>(rng.Below(40)) - 0.5f;
    const float t_max = static_cast<float>(rng.Below(30)) + 0.6f;
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < centers.size(); ++i) {
      if (centers[i].y == y && centers[i].z == 0 && centers[i].x > x0 &&
          centers[i].x - x0 <= t_max) {
        expected.push_back(i);
      }
    }
    std::vector<Hit> hits;
    scene.CastRayCollectAll(AxisRay(0, {x0, y, 0}, t_max), &hits);
    std::vector<std::uint32_t> got;
    got.reserve(hits.size());
    for (const Hit& h : hits) got.push_back(h.primitive_index);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST(BvhBuild, AllDuplicatePositionsStillSplit) {
  // 1000 triangles at one position: the builder must fall back to
  // median splits instead of producing one enormous leaf.
  Scene scene;
  for (int i = 0; i < 1000; ++i) AddCenteredTriangle(&scene, 1, 1, 1);
  scene.Build();
  std::size_t max_leaf = 0;
  for (const auto& node : scene.bvh().nodes()) {
    if (node.IsLeaf()) {
      max_leaf = std::max<std::size_t>(max_leaf, node.prim_count);
    }
  }
  EXPECT_LE(max_leaf, Bvh::kMaxLeafSize);
  std::vector<Hit> hits;
  scene.CastRayCollectAll(AxisRay(0, {0, 1, 1}, 5), &hits);
  EXPECT_EQ(hits.size(), 1000u);
}

// ---------------------------------------------------------------------
// Refit.
// ---------------------------------------------------------------------

TEST(Refit, MovedTriangleIsFoundAfterRefit) {
  Scene scene;
  const std::uint32_t moving = AddCenteredTriangle(&scene, 2, 0, 0);
  AddCenteredTriangle(&scene, 10, 0, 0);
  scene.Build();
  // Move the first triangle; before refit the BVH may miss it.
  const float nx = 50;
  scene.SetTriangle(moving, {nx, 0.25f, -0.25f}, {nx + 0.25f, -0.25f, 0},
                    {nx - 0.25f, 0, 0.25f});
  scene.Refit();
  const auto hit = scene.CastRay(AxisRay(0, {40, 0, 0}, 100));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->primitive_index, moving);
}

TEST(Refit, DegeneratedTriangleDisappears) {
  Scene scene;
  const std::uint32_t a = AddCenteredTriangle(&scene, 2, 0, 0);
  const std::uint32_t b = AddCenteredTriangle(&scene, 5, 0, 0);
  scene.Build();
  scene.SetDegenerateTriangle(a);
  scene.Refit();
  const auto hit = scene.CastRay(AxisRay(0, {0, 0, 0}, 100));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->primitive_index, b);
}

TEST(Refit, InflatesBoundsInsteadOfRestructuring) {
  // The Figure 1c mechanism: parked triangles activated far from their
  // BVH siblings blow up the refitted leaf bounds, so short segment
  // probes (RX point lookups use collect-all rays of length 1) start
  // testing many unrelated triangles. Closest-hit probes hide this via
  // best-t pruning, so the probe mirrors RX and collects all hits.
  Scene scene;
  for (int i = 0; i < 64; ++i) {
    AddCenteredTriangle(&scene, static_cast<float>(i), 0, 0);
  }
  std::vector<std::uint32_t> parked;
  for (int i = 0; i < 64; ++i) {
    parked.push_back(AddCenteredTriangle(&scene, -2, 0, 0));
  }
  scene.Build();
  auto probe = [&scene] {
    TraversalStats stats;
    std::vector<Hit> hits;
    for (int x = 0; x < 64; x += 8) {
      hits.clear();
      scene.CastRayCollectAll(
          AxisRay(0, {static_cast<float>(x) - 0.5f, 0, 0}, 1.0f), &hits,
          &stats);
    }
    return stats.triangle_tests;
  };
  const auto before = probe();
  // Activate all parked triangles at scattered positions along the
  // probe row: each activated leaf's refitted bounds now span from the
  // parking corner to the new position, covering the whole row.
  for (std::size_t i = 0; i < parked.size(); ++i) {
    const float x = 0.5f + static_cast<float>(7 * i % 61);
    scene.SetTriangle(parked[i], {x, 0.25f, -0.25f},
                      {x + 0.25f, -0.25f, 0}, {x - 0.25f, 0, 0.25f});
  }
  scene.Refit();
  const auto after = probe();
  EXPECT_GT(after, 2 * before);
  // A full rebuild restores the lean traversal.
  scene.Build();
  const auto rebuilt = probe();
  EXPECT_LT(rebuilt, after);
}

// ---------------------------------------------------------------------
// Misc.
// ---------------------------------------------------------------------

TEST(Scene, EmptySceneMissesEverything) {
  Scene scene;
  scene.Build();
  EXPECT_FALSE(scene.CastRay(AxisRay(0, {0, 0, 0}, 100)).has_value());
  std::vector<Hit> hits;
  scene.CastRayCollectAll(AxisRay(0, {0, 0, 0}, 100), &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(Scene, EveryCastRejectsNonAxisRays) {
  // The precondition holds whatever the scene holds: checked on a built
  // scene and on an empty one.
  Scene built;
  AddCenteredTriangle(&built, 2, 0, 0);
  built.Build();
  Scene empty;
  empty.Build();
  const Vec3f bad_directions[] = {{1, 1, 0}, {-1, 0, 0}, {2, 0, 0}, {0, 0, 0}};
  for (const Scene* scene : {&built, &empty}) {
    for (const Vec3f& direction : bad_directions) {
      SCOPED_TRACE(testing::Message()
                   << (scene == &built ? "built" : "empty") << " direction ("
                   << direction.x << ", " << direction.y << ", "
                   << direction.z << ")");
      Ray ray = AxisRay(0, {0, 0, 0}, 100);
      ray.direction = direction;
      Hit hit;
      TraversalContext ctx;
      std::vector<Hit> hits;
      EXPECT_THROW(scene->CastRay(ray), std::invalid_argument);
      EXPECT_THROW(scene->CastRayInto(ray, &hit, &ctx), std::invalid_argument);
      EXPECT_THROW(scene->CastRayCollectAll(ray, &hits),
                   std::invalid_argument);
      EXPECT_THROW(scene->CastRayCollectAll(ray, &ctx), std::invalid_argument);
      EXPECT_THROW(scene->CastRayBinary(ray), std::invalid_argument);
      EXPECT_THROW(scene->CastRayCollectAllBinary(ray, &hits),
                   std::invalid_argument);
    }
  }
  // The three axis rays stay valid on both.
  for (int axis = 0; axis < 3; ++axis) {
    EXPECT_NO_THROW(built.CastRay(AxisRay(axis, {0, 0, 0}, 100)));
    EXPECT_NO_THROW(empty.CastRay(AxisRay(axis, {0, 0, 0}, 100)));
  }
}

TEST(Scene, MemoryFootprintGrowsWithTriangles) {
  Scene a;
  AddCenteredTriangle(&a, 0, 0, 0);
  a.Build();
  Scene b;
  for (int i = 0; i < 100; ++i) {
    AddCenteredTriangle(&b, static_cast<float>(i), 0, 0);
  }
  b.Build();
  EXPECT_GT(b.MemoryFootprintBytes(), a.MemoryFootprintBytes());
  // 36 bytes of vertex data per triangle, as the paper states.
  EXPECT_EQ(b.soup().MemoryBytes(), 100u * 36u);
}

TEST(ExecutionPolicyKernel, ExecutesEveryIndexOnce) {
  std::vector<std::atomic<int>> counts(4096);
  api::ExecutionPolicy().For(counts.size(), 64, [&](std::size_t i) {
    counts[i].fetch_add(1);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);

  std::vector<std::atomic<int>> serial_counts(512);
  api::ExecutionPolicy::Serial().For(
      serial_counts.size(), 64,
      [&](std::size_t i) { serial_counts[i].fetch_add(1); });
  for (const auto& c : serial_counts) EXPECT_EQ(c.load(), 1);
}

TEST(BvhDepth, ReasonableForUniformScene) {
  Rng rng(41);
  Scene scene;
  for (int i = 0; i < 4096; ++i) {
    AddCenteredTriangle(&scene, static_cast<float>(rng.Below(1 << 20)),
                        static_cast<float>(rng.Below(64)), 0);
  }
  scene.Build();
  EXPECT_LE(scene.bvh().Depth(), 64);
  EXPECT_GE(scene.bvh().Depth(), 10);
}

}  // namespace
}  // namespace cgrx::rt
