#include "src/api/factory.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/api/adapters.h"
#include "src/baselines/btree.h"
#include "src/baselines/full_scan.h"
#include "src/baselines/hash_table.h"
#include "src/baselines/rtscan.h"
#include "src/baselines/sorted_array.h"
#include "src/core/cgrx_index.h"
#include "src/core/cgrxu_index.h"
#include "src/rx/rx_index.h"

namespace cgrx::api {
namespace {

constexpr std::string_view kShardedPrefix = "sharded:";

static_assert(std::ranges::is_sorted(kBackendNames));

/// Creates the backend `name` names, or throws std::invalid_argument.
template <typename Key>
IndexPtr<Key> MakeBackend(std::string_view name, const IndexOptions& options) {
  if (name == "cgrx") {
    core::CgrxConfig config;
    config.bucket_size = options.bucket_size;
    config.representation = options.representation;
    config.miss_filter_bits_per_key = options.miss_filter_bits_per_key;
    if (options.scaled_mapping.has_value()) {
      config.scaled_mapping = *options.scaled_mapping;
    }
    config.mapping_override = options.mapping_override;
    return MakeAdapter<core::CgrxIndex<Key>>("cgrx", config);
  }
  if (name == "cgrxu") {
    core::CgrxuConfig config;
    config.node_bytes = options.node_bytes;
    config.representation = options.representation;
    if (options.scaled_mapping.has_value()) {
      config.scaled_mapping = *options.scaled_mapping;
    }
    config.mapping_override = options.mapping_override;
    return MakeAdapter<core::CgrxuIndex<Key>>("cgrxu", config);
  }
  if (name == "rx") {
    rx::RxConfig config;
    config.spare_capacity = options.spare_capacity;
    if (options.scaled_mapping.has_value()) {
      config.scaled_mapping = *options.scaled_mapping;
    }
    config.mapping_override = options.mapping_override;
    return MakeAdapter<rx::RxIndex<Key>>("rx", config);
  }
  if (name == "sa") return MakeAdapter<baselines::SortedArray<Key>>("sa");
  if (name == "btree") return MakeAdapter<baselines::BPlusTree<Key>>("btree");
  if (name == "ht") {
    return MakeAdapter<baselines::HashTable<Key>>("ht", options.load_factor);
  }
  if (name == "fullscan") {
    return MakeAdapter<baselines::FullScan<Key>>("fullscan");
  }
  if (name == "rtscan") {
    return MakeAdapter<baselines::RtScan<Key>>("rtscan",
                                               options.mapping_override);
  }
  std::string message = "unknown index backend: \"" + std::string(name) +
                        "\" (known:";
  for (const std::string_view known : kBackendNames) {
    message += " " + std::string(known);
  }
  message += "; prefix one of them with \"sharded:\" for a sharded composite)";
  throw std::invalid_argument(message);
}

}  // namespace

template <typename Key>
IndexPtr<Key> MakeIndex(std::string_view name, const IndexOptions& options) {
  if (!name.starts_with(kShardedPrefix)) {
    IndexPtr<Key> index = MakeBackend<Key>(name, options);
    index->set_creation_options(options);
    return index;
  }
  const std::string_view inner = name.substr(kShardedPrefix.size());
  if (inner.starts_with(kShardedPrefix)) {
    throw std::invalid_argument("index backend \"" + std::string(name) +
                                "\" nests \"sharded:\"; one prefix at most");
  }
  const std::uint32_t count = std::max<std::uint32_t>(1, options.shard_count);
  std::vector<IndexPtr<Key>> shards;
  shards.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    shards.push_back(MakeIndex<Key>(inner, options));
  }
  auto sharded = std::make_shared<ShardedIndex<Key>>(
      std::string(name), std::move(shards), options.shard_scheme);
  // Normalize the recorded count so a snapshot reopens with exactly the
  // shards it was written with, even if the caller passed 0.
  IndexOptions recorded = options;
  recorded.shard_count = count;
  sharded->set_creation_options(std::move(recorded));
  return sharded;
}

template IndexPtr<std::uint32_t> MakeIndex(std::string_view,
                                           const IndexOptions&);
template IndexPtr<std::uint64_t> MakeIndex(std::string_view,
                                           const IndexOptions&);

}  // namespace cgrx::api
