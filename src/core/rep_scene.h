#ifndef CGRX_SRC_CORE_REP_SCENE_H_
#define CGRX_SRC_CORE_REP_SCENE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/rt/scene.h"
#include "src/util/key_mapping.h"
#include "src/util/serial.h"

namespace cgrx::core {

/// Scene representation (paper Section III): the naive representation
/// materializes explicit row/plane markers at x = -1 / y = -1; the
/// optimized representation turns representatives into implicit markers
/// by moving them to x = xmax, inserting auxiliary representatives and
/// flipping triangle windings (Section III-B).
enum class Representation {
  kNaive,
  kOptimized,
};

/// The raytraced part of cgRX/cgRXu: a 3D scene holding one
/// representative triangle per bucket (plus markers), and the multi-ray
/// lookup procedure that maps a key to the first bucket whose
/// representative is >= the key.
///
/// Shared by CgrxIndex (buckets of the sorted array) and CgrxuIndex
/// (node-based buckets): both reduce to "here are the sorted bucket
/// representatives, locate the bucket for a key".
class RepScene {
 public:
  struct Options {
    Representation representation = Representation::kOptimized;
    bool enable_flipping = true;
  };

  /// Builds the scene.
  ///
  /// `reps` are the sorted bucket representatives (duplicates allowed,
  /// exactly as produced by bucketing a sorted key array). `movable[b]`
  /// states whether representative b may be moved to the end of its row
  /// (paper rule (1)): true iff the key following it belongs to a
  /// different row (or does not exist). Only consulted by the optimized
  /// representation.
  void Build(const std::vector<std::uint64_t>& reps,
             const std::vector<std::uint8_t>& movable,
             const util::KeyMapping& mapping, const Options& options);

  /// Locates the first bucket whose representative is >= `key`:
  /// nullopt if `key` exceeds the largest representative, bucket 0
  /// without firing rays if `key` is below the smallest. `rays_used`
  /// (optional) receives the number of rays fired (0 to 5); `ctx`
  /// (optional) supplies reusable traversal scratch for batch callers.
  std::optional<std::uint32_t> Locate(std::uint64_t key,
                                      int* rays_used = nullptr,
                                      rt::TraversalContext* ctx = nullptr) const;

  std::uint32_t num_buckets() const { return num_buckets_; }
  bool multi_line() const { return multi_line_; }
  bool multi_plane() const { return multi_plane_; }
  std::uint64_t min_rep() const { return min_rep_; }
  std::uint64_t max_rep() const { return max_rep_; }
  const rt::Scene& scene() const { return scene_; }

  /// Vertex buffer + BVH bytes.
  std::size_t MemoryFootprintBytes() const {
    return scene_.MemoryFootprintBytes();
  }

  /// Number of non-degenerate triangles (tests/ablation).
  std::size_t ActiveTriangleCount() const;

  /// Snapshot support: persists the build options, the key mapping and
  /// every derived scalar alongside the full scene (vertex buffer +
  /// both BVHs), so LoadState restores the exact built state without
  /// re-running Build -- the whole point of a cgRX/cgRXu snapshot load
  /// skipping the BVH construction.
  void SaveState(util::ByteWriter* out) const;
  void LoadState(util::ByteReader* in);

 private:
  void BuildNaive(const std::vector<std::uint64_t>& reps);
  void BuildOptimized(const std::vector<std::uint64_t>& reps,
                      const std::vector<std::uint8_t>& movable);
  void AddSceneTriangle(std::int64_t gx, std::int64_t gy, std::int64_t gz,
                        bool flip);

  rt::Ray XRay(std::int64_t gx, std::int64_t gy, std::int64_t gz) const;
  rt::Ray YRay(std::int64_t col_x, std::int64_t gy_from,
               std::int64_t gz) const;
  rt::Ray ZRay(std::int64_t col_x, std::int64_t col_y,
               std::int64_t gz_from) const;
  bool Cast(const rt::Ray& ray, rt::Hit* hit, int* rays_used,
            rt::TraversalContext* ctx) const;
  std::int64_t GridYOfHit(const rt::Ray& ray, const rt::Hit& hit) const;
  std::int64_t GridZOfHit(const rt::Ray& ray, const rt::Hit& hit) const;

  std::uint32_t RemapOptimized(std::uint32_t slot) const;
  std::uint32_t ResolveBucket(std::uint32_t slot) const;
  std::optional<std::uint32_t> LocateNaive(const util::GridCoords& g,
                                           int* rays_used,
                                           rt::TraversalContext* ctx) const;
  std::optional<std::uint32_t> LocateOptimized(const util::GridCoords& g,
                                               int* rays_used,
                                               rt::TraversalContext* ctx) const;

  Options options_;
  util::KeyMapping mapping_ = util::KeyMapping::Rx64Scaled();
  rt::Scene scene_;
  std::uint64_t min_rep_ = 0;
  std::uint64_t max_rep_ = 0;
  bool multi_line_ = false;
  bool multi_plane_ = false;
  std::uint32_t num_buckets_ = 0;
  float dx_ = 0.5f;
  float dy_ = 0.5f;
  float dz_ = 0.5f;
};

}  // namespace cgrx::core

#endif  // CGRX_SRC_CORE_REP_SCENE_H_
