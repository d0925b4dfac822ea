#ifndef CGRX_SRC_BASELINES_RTSCAN_H_
#define CGRX_SRC_BASELINES_RTSCAN_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/api/execution_policy.h"
#include "src/core/types.h"
#include "src/rt/scene.h"
#include "src/util/key_mapping.h"

namespace cgrx::baselines {

/// Emulation of RTScan (RTc1) [12], the raytracing range-scan baseline
/// of the paper's Figure 14. Like RX it materializes one triangle per
/// key; unlike RX it parallelizes a *single* range lookup by firing many
/// short rays at different positions concurrently ("the number of
/// concurrently fired rays depends on the size of the range"), sweeping
/// the whole query rectangle regardless of how sparsely it is populated.
///
/// Matching the paper's fair-comparison extension, a batch executes at
/// most 32 range lookups concurrently; within that group, all segment
/// rays of the member queries are parallelized. RTScan does not support
/// point lookups out of the box (Table I), so none are offered.
template <typename Key>
class RtScan {
 public:
  using KeyType = Key;
  static constexpr int kKeyBits = static_cast<int>(sizeof(Key)) * 8;
  /// Grid units covered by one segment ray.
  static constexpr std::uint32_t kSegmentWidth = 64;
  /// Concurrent range lookups per group (the paper's batched extension).
  static constexpr std::size_t kConcurrentQueries = 32;

  explicit RtScan(std::optional<util::KeyMapping> mapping_override =
                      std::nullopt)
      : mapping_(mapping_override.value_or(
            util::KeyMapping::ForKeyBits(kKeyBits, /*scaled=*/false))) {
    dx_ = 0.5f;
    dy_ = mapping_.y_bits() > 0 ? 0.5f * mapping_.step_y() : 0.5f;
    dz_ = mapping_.z_bits() > 0 ? 0.5f * mapping_.step_z() : 0.5f;
  }

  void Build(std::vector<Key> keys) {
    std::vector<std::uint32_t> rows(keys.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<std::uint32_t>(i);
    }
    Build(std::move(keys), std::move(rows));
  }

  void Build(std::vector<Key> keys, std::vector<std::uint32_t> row_ids) {
    assert(keys.size() == row_ids.size());
    scene_ = rt::Scene();
    rows_ = std::move(row_ids);
    scene_.Reserve(keys.size());
    for (const Key key : keys) {
      const auto g = mapping_.GridOf(static_cast<std::uint64_t>(key));
      const rt::Vec3f c{mapping_.WorldX(g.x), mapping_.WorldY(g.y),
                        mapping_.WorldZ(g.z)};
      scene_.AddTriangle({c.x, c.y + dy_, c.z - dz_},
                         {c.x + dx_, c.y - dy_, c.z},
                         {c.x - dx_, c.y, c.z + dz_});
    }
    scene_.Build();
  }

  /// Executes one range lookup by sweeping the query span with segment
  /// rays (sequentially here; the batch API parallelizes).
  core::LookupResult RangeLookup(Key lo, Key hi) const {
    core::LookupResult result;
    std::vector<Segment> segments;
    CollectSegments(lo, hi, 0, &segments);
    core::LocalLookupCounters local;
    local.rays_fired = segments.size();
    counters_.Merge(local);
    std::vector<rt::Hit> hits;
    for (const Segment& s : segments) {
      hits.clear();
      scene_.CastRayCollectAll(SegmentRay(s), &hits);
      for (const rt::Hit& h : hits) result.Accumulate(rows_[h.primitive_index]);
    }
    return result;
  }

  /// Batched range lookups, 32 queries in flight at a time; all segment
  /// rays of a group run as one kernel.
  void RangeLookupBatch(const core::KeyRange<Key>* ranges, std::size_t count,
                        core::LookupResult* results,
                        const api::ExecutionPolicy& policy = {}) const {
    std::vector<Segment> segments;
    for (std::size_t group = 0; group < count; group += kConcurrentQueries) {
      const std::size_t group_end =
          std::min(count, group + kConcurrentQueries);
      segments.clear();
      for (std::size_t q = group; q < group_end; ++q) {
        results[q] = core::LookupResult{};
        CollectSegments(ranges[q].lo, ranges[q].hi, q, &segments);
      }
      std::vector<core::LookupResult> partial(segments.size());
      core::LocalLookupCounters local;
      local.rays_fired = segments.size();
      counters_.Merge(local);
      policy.For(segments.size(), 8, [&](std::size_t s) {
        std::vector<rt::Hit> hits;
        scene_.CastRayCollectAll(SegmentRay(segments[s]), &hits);
        for (const rt::Hit& h : hits) {
          partial[s].Accumulate(rows_[h.primitive_index]);
        }
      });
      for (std::size_t s = 0; s < segments.size(); ++s) {
        results[segments[s].query].row_id_sum += partial[s].row_id_sum;
        results[segments[s].query].match_count += partial[s].match_count;
      }
    }
  }

  std::size_t MemoryFootprintBytes() const {
    return scene_.MemoryFootprintBytes() +
           rows_.size() * sizeof(std::uint32_t);
  }

  std::size_t size() const { return rows_.size(); }

  /// Cumulative segment rays fired by lookups, feeding api::IndexStats.
  const core::LookupCounters& stat_counters() const { return counters_; }

  /// Persistence hook (requires-detected): RTScan keeps no key column
  /// -- like RX, keys live implicitly in the triangle positions -- so
  /// export inverts the grid mapping per triangle. Vertex 0 carries the
  /// exact world x, vertex 2 the exact world y and vertex 1 the exact
  /// world z of the key's grid cell (all float32-exact by the mapping's
  /// representability argument), making the inversion lossless.
  void ExportEntries(std::vector<Key>* keys,
                     std::vector<std::uint32_t>* rows) const {
    keys->clear();
    keys->reserve(rows_.size());
    const rt::TriangleSoup& soup = scene_.soup();
    for (std::uint32_t t = 0; t < rows_.size(); ++t) {
      util::GridCoords g;
      g.x = static_cast<std::uint32_t>(soup.Vertex(t, 0).x);
      g.y = static_cast<std::uint32_t>(soup.Vertex(t, 2).y /
                                       mapping_.step_y());
      g.z = static_cast<std::uint32_t>(soup.Vertex(t, 1).z /
                                       mapping_.step_z());
      keys->push_back(static_cast<Key>(mapping_.KeyOf(g)));
    }
    *rows = rows_;
  }

 private:
  struct Segment {
    std::uint64_t row = 0;
    std::uint32_t x_lo = 0;
    std::uint32_t x_hi = 0;
    std::size_t query = 0;
  };

  /// Splits [lo, hi] into per-row spans of at most kSegmentWidth grid
  /// units each -- the fixed-grid ray pattern of RTc1.
  void CollectSegments(Key lo, Key hi, std::size_t query,
                       std::vector<Segment>* out) const {
    if (lo > hi) return;
    const std::uint64_t row_lo =
        mapping_.RowKey(static_cast<std::uint64_t>(lo));
    const std::uint64_t row_hi =
        mapping_.RowKey(static_cast<std::uint64_t>(hi));
    for (std::uint64_t row = row_lo; row <= row_hi; ++row) {
      const std::uint32_t x_lo =
          row == row_lo ? mapping_.GridOf(static_cast<std::uint64_t>(lo)).x
                        : 0;
      const std::uint32_t x_hi =
          row == row_hi ? mapping_.GridOf(static_cast<std::uint64_t>(hi)).x
                        : mapping_.x_max();
      for (std::uint64_t x = x_lo; x <= x_hi; x += kSegmentWidth) {
        out->push_back({row, static_cast<std::uint32_t>(x),
                        static_cast<std::uint32_t>(std::min<std::uint64_t>(
                            x_hi, x + kSegmentWidth - 1)),
                        query});
      }
    }
  }

  rt::Ray SegmentRay(const Segment& s) const {
    const auto y = static_cast<std::int64_t>(
        mapping_.y_bits() > 0 ? s.row & ((1ULL << mapping_.y_bits()) - 1)
                              : 0);
    const auto z = static_cast<std::int64_t>(
        mapping_.y_bits() > 0 ? s.row >> mapping_.y_bits() : s.row);
    rt::Ray ray;
    ray.origin = {mapping_.WorldX(s.x_lo) - 0.5f, mapping_.WorldY(y),
                  mapping_.WorldZ(z)};
    ray.direction = {1, 0, 0};
    ray.t_min = 0;
    ray.t_max = static_cast<float>(s.x_hi - s.x_lo) + 1.0f;
    return ray;
  }

  util::KeyMapping mapping_;
  rt::Scene scene_;
  std::vector<std::uint32_t> rows_;
  mutable core::LookupCounters counters_;
  float dx_ = 0.5f;
  float dy_ = 0.5f;
  float dz_ = 0.5f;
};

}  // namespace cgrx::baselines

#endif  // CGRX_SRC_BASELINES_RTSCAN_H_
