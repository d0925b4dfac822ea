#ifndef CGRX_SRC_API_INDEX_OPTIONS_H_
#define CGRX_SRC_API_INDEX_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "src/core/rep_scene.h"
#include "src/util/key_mapping.h"

namespace cgrx::api {

/// How a ShardedIndex partitions the key space over its inner indexes.
enum class ShardScheme {
  /// Contiguous key ranges, boundaries chosen at Build time from the
  /// bulk-load key quantiles (aligned to duplicate groups so every key
  /// value lives in exactly one shard). Point and range lookups touch
  /// only the shards that can hold matches; the last shard additionally
  /// owns everything above the largest bulk-loaded key, mirroring
  /// cgRXu's overflow bucket.
  kRange,
  /// Key-hash modulo shard count (splitmix64 finalizer). Point lookups
  /// and updates touch one shard; range lookups must fan out to every
  /// shard and merge.
  kHash,
};

/// Construction-time knobs shared by every backend. Each backend reads
/// the fields it understands and ignores the rest; defaults reproduce
/// the paper's recommended configurations.
///
/// MakeIndex stamps the options it created an index from onto the
/// instance (Index::creation_options), and the persistence layer
/// serializes them into every snapshot -- which is how
/// storage::OpenIndex reconstructs an equivalent backend before
/// restoring its state.
struct IndexOptions {
  /// cgRX: keys per bucket (32 = paper default, 256 = space-efficient).
  std::uint32_t bucket_size = 32;

  /// cgRX/cgRXu: naive vs. optimized scene representation.
  core::Representation representation = core::Representation::kOptimized;

  /// cgRX: blocked Bloom miss-filter budget; 0 disables (paper config).
  double miss_filter_bits_per_key = 0;

  /// cgRXu: node size in bytes (128 = "1 cl", 64 = ".5 cl").
  std::uint32_t node_bytes = 128;

  /// HT: target load factor (paper: 0.8 lookup, 0.4 update workloads).
  double load_factor = 0.8;

  /// RX: spare vertex-buffer slots parked for insertions.
  double spare_capacity = 0.25;

  /// Overrides each backend's default key mapping choice (cgRX/cgRXu
  /// default scaled, RX/RTScan unscaled, per the paper).
  std::optional<bool> scaled_mapping;

  /// "sharded:<backend>" names: number of inner shards (min 1).
  std::uint32_t shard_count = 4;

  /// "sharded:<backend>" names: key partitioning scheme.
  ShardScheme shard_scheme = ShardScheme::kRange;

  /// Full mapping override for tests driving the paper's tiny
  /// running-example mapping.
  std::optional<util::KeyMapping> mapping_override;
};

}  // namespace cgrx::api

#endif  // CGRX_SRC_API_INDEX_OPTIONS_H_
