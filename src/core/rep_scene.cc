#include "src/core/rep_scene.h"

#include <cassert>
#include <cmath>

namespace cgrx::core {

void RepScene::Build(const std::vector<std::uint64_t>& reps,
                     const std::vector<std::uint8_t>& movable,
                     const util::KeyMapping& mapping,
                     const Options& options) {
  assert(options.representation == Representation::kNaive ||
         reps.size() == movable.size());
  options_ = options;
  mapping_ = mapping;
  dx_ = 0.5f;
  dy_ = mapping_.y_bits() > 0 ? 0.5f * mapping_.step_y() : 0.5f;
  dz_ = mapping_.z_bits() > 0 ? 0.5f * mapping_.step_z() : 0.5f;
  scene_ = rt::Scene();
  num_buckets_ = static_cast<std::uint32_t>(reps.size());
  if (reps.empty()) {
    min_rep_ = max_rep_ = 0;
    multi_line_ = multi_plane_ = false;
    return;
  }
  min_rep_ = reps.front();
  max_rep_ = reps.back();
  multi_line_ = mapping_.RowKey(min_rep_) != mapping_.RowKey(max_rep_);
  multi_plane_ = mapping_.PlaneKey(min_rep_) != mapping_.PlaneKey(max_rep_);
  if (options_.representation == Representation::kNaive) {
    BuildNaive(reps);
  } else {
    BuildOptimized(reps, movable);
  }
  scene_.Build();
}

/// Paper Algorithm 1: representatives at natural positions, explicit
/// row markers at x = -1 and plane markers at x = -1, y = -1, one per
/// populated row/plane (skipped entirely when all representatives share
/// one row/plane).
void RepScene::BuildNaive(const std::vector<std::uint64_t>& reps) {
  const std::size_t reserve =
      static_cast<std::size_t>(num_buckets_) *
      (1 + (multi_line_ ? 1 : 0) + (multi_plane_ ? 1 : 0));
  scene_.Reserve(reserve);
  // Slots [0, numB): representatives (Alg. 1 lines 11-12).
  for (std::uint32_t b = 0; b < num_buckets_; ++b) {
    if (b > 0 && reps[b] == reps[b - 1]) {
      scene_.AddDegenerateTriangle();  // Duplicate representative.
      continue;
    }
    const auto g = mapping_.GridOf(reps[b]);
    AddSceneTriangle(g.x, g.y, g.z, /*flip=*/false);
  }
  // Slots [numB, 2 numB): row markers (Alg. 1 lines 13-14).
  if (multi_line_) {
    for (std::uint32_t b = 0; b < num_buckets_; ++b) {
      const bool first_of_row =
          b == 0 ||
          mapping_.RowKey(reps[b]) != mapping_.RowKey(reps[b - 1]);
      if (!first_of_row) {
        scene_.AddDegenerateTriangle();
        continue;
      }
      const auto g = mapping_.GridOf(reps[b]);
      AddSceneTriangle(-1, g.y, g.z, /*flip=*/false);
    }
  }
  // Slots [2 numB, 3 numB): plane markers (Alg. 1 lines 15-16).
  if (multi_plane_) {
    for (std::uint32_t b = 0; b < num_buckets_; ++b) {
      const bool first_of_plane =
          b == 0 ||
          mapping_.PlaneKey(reps[b]) != mapping_.PlaneKey(reps[b - 1]);
      if (!first_of_plane) {
        scene_.AddDegenerateTriangle();
        continue;
      }
      const auto g = mapping_.GridOf(reps[b]);
      AddSceneTriangle(-1, -1, g.z, /*flip=*/false);
    }
  }
}

/// Paper Algorithm 3: moved representatives, auxiliary representatives
/// as implicit row markers at x = xmax, implicit plane markers at
/// (xmax, ymax) and triangle flipping. Out-of-range nextKey/prevRep/
/// nextRep follow the paper's edge-case discussion: a missing
/// nextKey/nextRep behaves like a different row/plane, a missing
/// prevRep like a different value and row.
void RepScene::BuildOptimized(const std::vector<std::uint64_t>& reps,
                              const std::vector<std::uint8_t>& movable) {
  const std::int64_t xmax = mapping_.x_max();
  const std::int64_t ymax = mapping_.y_max();
  const std::size_t reserve =
      static_cast<std::size_t>(num_buckets_) *
      (1 + (multi_line_ ? 1 : 0) + (multi_plane_ ? 1 : 0));
  scene_.Reserve(reserve);

  // Slots [0, numB): (possibly moved) representatives, Alg. 3 ll. 16-19.
  for (std::uint32_t b = 0; b < num_buckets_; ++b) {
    const std::uint64_t rep = reps[b];
    const bool is_duplicate = b > 0 && rep == reps[b - 1];
    const bool can_move = movable[b] != 0;
    const auto g = mapping_.GridOf(rep);
    const bool at_xmax = g.x == static_cast<std::uint32_t>(xmax);
    const bool needs_rep = !is_duplicate || (can_move && !at_xmax);
    if (!needs_rep) {
      scene_.AddDegenerateTriangle();
      continue;
    }
    const std::int64_t x = can_move ? xmax : g.x;
    const bool only_rep_in_row =
        b == 0 || mapping_.RowKey(reps[b - 1]) != mapping_.RowKey(rep);
    const bool flip = options_.enable_flipping && can_move && only_rep_in_row;
    AddSceneTriangle(x, g.y, g.z, flip);
  }
  // Slots [numB, 2 numB): auxiliary row markers (Alg. 3 lines 20-21).
  if (multi_line_) {
    for (std::uint32_t b = 0; b < num_buckets_; ++b) {
      const std::uint64_t rep = reps[b];
      const bool has_next_rep = b + 1 < num_buckets_;
      const bool last_of_row =
          !has_next_rep ||
          mapping_.RowKey(rep) != mapping_.RowKey(reps[b + 1]);
      const bool needs_row_mark = movable[b] == 0 && last_of_row;
      if (!needs_row_mark) {
        scene_.AddDegenerateTriangle();
        continue;
      }
      const auto g = mapping_.GridOf(rep);
      AddSceneTriangle(xmax, g.y, g.z, /*flip=*/false);
    }
  }
  // Slots [2 numB, 3 numB): implicit plane markers (Alg. 3 ll. 22-23).
  if (multi_plane_) {
    for (std::uint32_t b = 0; b < num_buckets_; ++b) {
      const std::uint64_t rep = reps[b];
      const auto g = mapping_.GridOf(rep);
      const bool has_next_rep = b + 1 < num_buckets_;
      const bool last_of_plane =
          !has_next_rep ||
          mapping_.PlaneKey(rep) != mapping_.PlaneKey(reps[b + 1]);
      const bool needs_plane_mark =
          g.y != static_cast<std::uint32_t>(ymax) && last_of_plane;
      if (!needs_plane_mark) {
        scene_.AddDegenerateTriangle();
        continue;
      }
      AddSceneTriangle(xmax, ymax, g.z, /*flip=*/false);
    }
  }
}

/// mkTri of the paper: a small triangle centred on the grid point
/// (gx, gy, gz). Vertex offsets are exact multiples of the half-steps
/// (dx, dy, dz), so all coordinates stay float32-exact across the whole
/// 23-bit grid; the shape has an all-negative normal, making unflipped
/// triangles front-facing for +x/+y/+z rays. Flipping inverts the
/// winding order (paper Section III-B, triangle flipping).
void RepScene::AddSceneTriangle(std::int64_t gx, std::int64_t gy,
                                std::int64_t gz, bool flip) {
  const rt::Vec3f c{mapping_.WorldX(gx), mapping_.WorldY(gy),
                    mapping_.WorldZ(gz)};
  const rt::Vec3f o0{c.x, c.y + dy_, c.z - dz_};
  const rt::Vec3f o1{c.x + dx_, c.y - dy_, c.z};
  const rt::Vec3f o2{c.x - dx_, c.y, c.z + dz_};
  if (flip) {
    scene_.AddTriangle(o0, o2, o1);
  } else {
    scene_.AddTriangle(o0, o1, o2);
  }
}

rt::Ray RepScene::XRay(std::int64_t gx, std::int64_t gy,
                       std::int64_t gz) const {
  rt::Ray ray;
  ray.origin = {mapping_.WorldX(gx) - 0.5f, mapping_.WorldY(gy),
                mapping_.WorldZ(gz)};
  ray.direction = {1, 0, 0};
  ray.t_min = 0;
  ray.t_max = static_cast<float>(mapping_.x_max() - gx) + 1.0f;
  return ray;
}

rt::Ray RepScene::YRay(std::int64_t col_x, std::int64_t gy_from,
                       std::int64_t gz) const {
  rt::Ray ray;
  const float sy = mapping_.step_y();
  ray.origin = {mapping_.WorldX(col_x), mapping_.WorldY(gy_from) - 0.5f * sy,
                mapping_.WorldZ(gz)};
  ray.direction = {0, 1, 0};
  ray.t_min = 0;
  ray.t_max = (static_cast<float>(mapping_.y_max() - gy_from) + 1.0f) * sy;
  return ray;
}

rt::Ray RepScene::ZRay(std::int64_t col_x, std::int64_t col_y,
                       std::int64_t gz_from) const {
  rt::Ray ray;
  const float sz = mapping_.step_z();
  ray.origin = {mapping_.WorldX(col_x), mapping_.WorldY(col_y),
                mapping_.WorldZ(gz_from) - 0.5f * sz};
  ray.direction = {0, 0, 1};
  ray.t_max = (static_cast<float>(mapping_.z_max() - gz_from) + 1.0f) * sz;
  ray.t_min = 0;
  return ray;
}

bool RepScene::Cast(const rt::Ray& ray, rt::Hit* hit, int* rays_used,
                    rt::TraversalContext* ctx) const {
  if (rays_used != nullptr) ++*rays_used;
  return scene_.CastRayInto(ray, hit, ctx);
}

std::int64_t RepScene::GridYOfHit(const rt::Ray& ray,
                                  const rt::Hit& hit) const {
  const double y = static_cast<double>(ray.origin.y) + hit.t;
  return std::llround(y / static_cast<double>(mapping_.step_y()));
}

std::int64_t RepScene::GridZOfHit(const rt::Ray& ray,
                                  const rt::Hit& hit) const {
  const double z = static_cast<double>(ray.origin.z) + hit.t;
  return std::llround(z / static_cast<double>(mapping_.step_z()));
}

std::uint32_t RepScene::RemapOptimized(std::uint32_t slot) const {
  // Paper Section III-B: i >= 2 numB -> i - 2 numB + 1;
  // i >= numB -> i - numB + 1; else i.
  if (slot >= 2 * num_buckets_) return slot - 2 * num_buckets_ + 1;
  if (slot >= num_buckets_) return slot - num_buckets_ + 1;
  return slot;
}

std::uint32_t RepScene::ResolveBucket(std::uint32_t slot) const {
  if (options_.representation == Representation::kNaive) {
    assert(slot < num_buckets_);
    return slot;
  }
  const std::uint32_t bucket = RemapOptimized(slot);
  assert(bucket < num_buckets_);
  return bucket;
}

std::optional<std::uint32_t> RepScene::Locate(
    std::uint64_t key, int* rays_used, rt::TraversalContext* ctx) const {
  if (rays_used != nullptr) *rays_used = 0;
  if (num_buckets_ == 0) return std::nullopt;
  if (key < min_rep_) return 0;           // Paper Alg. 2 line 2.
  if (key > max_rep_) return std::nullopt;  // Alg. 2 line 3.
  const util::GridCoords g = mapping_.GridOf(key);
  // Ray 1: along the key's own row (Alg. 2 lines 4-5).
  rt::Hit hit;
  if (Cast(XRay(g.x, g.y, g.z), &hit, rays_used, ctx)) {
    return ResolveBucket(hit.primitive_index);
  }
  return options_.representation == Representation::kNaive
             ? LocateNaive(g, rays_used, ctx)
             : LocateOptimized(g, rays_used, ctx);
}

/// Paper Algorithm 2, rays 2-5, against explicit markers.
std::optional<std::uint32_t> RepScene::LocateNaive(
    const util::GridCoords& g, int* rays_used,
    rt::TraversalContext* ctx) const {
  if (multi_line_ && g.y < mapping_.y_max()) {
    const rt::Ray y_ray = YRay(-1, static_cast<std::int64_t>(g.y) + 1, g.z);
    rt::Hit row_hit;
    if (Cast(y_ray, &row_hit, rays_used, ctx)) {
      const std::int64_t row_y = GridYOfHit(y_ray, row_hit);
      rt::Hit rep_hit;
      if (Cast(XRay(0, row_y, g.z), &rep_hit, rays_used, ctx)) {
        return ResolveBucket(rep_hit.primitive_index);
      }
      return std::nullopt;
    }
  }
  if (multi_plane_ && g.z < mapping_.z_max()) {
    const rt::Ray z_ray = ZRay(-1, -1, static_cast<std::int64_t>(g.z) + 1);
    rt::Hit plane_hit;
    if (!Cast(z_ray, &plane_hit, rays_used, ctx)) return std::nullopt;
    const std::int64_t plane_z = GridZOfHit(z_ray, plane_hit);
    const rt::Ray y_ray = YRay(-1, 0, plane_z);
    rt::Hit row_hit;
    if (!Cast(y_ray, &row_hit, rays_used, ctx)) return std::nullopt;
    const std::int64_t row_y = GridYOfHit(y_ray, row_hit);
    rt::Hit rep_hit;
    if (Cast(XRay(0, row_y, plane_z), &rep_hit, rays_used, ctx)) {
      return ResolveBucket(rep_hit.primitive_index);
    }
  }
  // Unreachable for key <= max_rep_: a representative >= key exists and
  // is discoverable through the marker chain.
  assert(false);
  return std::nullopt;
}

/// Optimized lookup, rays 2-5: the marker column is x = xmax (every
/// populated row ends with a triangle there); back-face hits announce
/// "only representative in this row" and skip the follow-up x-ray;
/// plane-marker hits (slot >= 2 numB) resolve directly to the first
/// bucket after the key's plane.
std::optional<std::uint32_t> RepScene::LocateOptimized(
    const util::GridCoords& g, int* rays_used,
    rt::TraversalContext* ctx) const {
  const std::int64_t xmax = mapping_.x_max();
  const std::int64_t ymax = mapping_.y_max();
  if (multi_line_ && g.y < mapping_.y_max()) {
    const rt::Ray y_ray = YRay(xmax, static_cast<std::int64_t>(g.y) + 1, g.z);
    rt::Hit hit;
    if (Cast(y_ray, &hit, rays_used, ctx)) {
      if (hit.primitive_index >= 2 * num_buckets_ || !hit.front_face) {
        // Plane marker (no populated row above the key on this plane)
        // or a flipped lone representative: resolved without more rays.
        return ResolveBucket(hit.primitive_index);
      }
      const std::int64_t row_y = GridYOfHit(y_ray, hit);
      rt::Hit rep_hit;
      if (Cast(XRay(0, row_y, g.z), &rep_hit, rays_used, ctx)) {
        return ResolveBucket(rep_hit.primitive_index);
      }
      return std::nullopt;
    }
  }
  if (multi_plane_ && g.z < mapping_.z_max()) {
    const rt::Ray z_ray = ZRay(xmax, ymax, static_cast<std::int64_t>(g.z) + 1);
    rt::Hit plane_hit;
    if (!Cast(z_ray, &plane_hit, rays_used, ctx)) return std::nullopt;
    const std::int64_t plane_z = GridZOfHit(z_ray, plane_hit);
    const rt::Ray y_ray = YRay(xmax, 0, plane_z);
    rt::Hit row_hit;
    if (!Cast(y_ray, &row_hit, rays_used, ctx)) return std::nullopt;
    if (!row_hit.front_face) {
      return ResolveBucket(row_hit.primitive_index);  // Lone rep.
    }
    const std::int64_t row_y = GridYOfHit(y_ray, row_hit);
    rt::Hit rep_hit;
    if (Cast(XRay(0, row_y, plane_z), &rep_hit, rays_used, ctx)) {
      return ResolveBucket(rep_hit.primitive_index);
    }
  }
  assert(false);
  return std::nullopt;
}

std::size_t RepScene::ActiveTriangleCount() const {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < scene_.soup().size(); ++i) {
    if (scene_.soup().IsActive(i)) ++n;
  }
  return n;
}

void RepScene::SaveState(util::ByteWriter* out) const {
  out->WriteU8(static_cast<std::uint8_t>(options_.representation));
  out->WriteBool(options_.enable_flipping);
  out->WriteI32(mapping_.x_bits());
  out->WriteI32(mapping_.y_bits());
  out->WriteI32(mapping_.z_bits());
  out->WriteI32(mapping_.y_scale_log2());
  out->WriteI32(mapping_.z_scale_log2());
  out->WriteU64(min_rep_);
  out->WriteU64(max_rep_);
  out->WriteBool(multi_line_);
  out->WriteBool(multi_plane_);
  out->WriteU32(num_buckets_);
  scene_.SaveState(out);
}

void RepScene::LoadState(util::ByteReader* in) {
  options_.representation = static_cast<Representation>(in->ReadU8());
  options_.enable_flipping = in->ReadBool();
  const int x_bits = in->ReadI32();
  const int y_bits = in->ReadI32();
  const int z_bits = in->ReadI32();
  const int y_log2 = in->ReadI32();
  const int z_log2 = in->ReadI32();
  mapping_ = util::KeyMapping(x_bits, y_bits, z_bits, y_log2, z_log2);
  dx_ = 0.5f;
  dy_ = mapping_.y_bits() > 0 ? 0.5f * mapping_.step_y() : 0.5f;
  dz_ = mapping_.z_bits() > 0 ? 0.5f * mapping_.step_z() : 0.5f;
  min_rep_ = in->ReadU64();
  max_rep_ = in->ReadU64();
  multi_line_ = in->ReadBool();
  multi_plane_ = in->ReadBool();
  num_buckets_ = in->ReadU32();
  scene_.LoadState(in);
}

}  // namespace cgrx::core
