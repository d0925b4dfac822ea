#include "src/api/factory.h"

#include <algorithm>
#include <stdexcept>
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

/// Registers the eight competitors of the paper's evaluation
/// (Section VI / Table I) under their registry names.
template <typename Key>
void RegisterBuiltins(IndexFactory<Key>* factory) {
  factory->Register("cgrx", [](const IndexOptions& options) {
    core::CgrxConfig config;
    config.bucket_size = options.bucket_size;
    config.representation = options.representation;
    config.miss_filter_bits_per_key = options.miss_filter_bits_per_key;
    if (options.scaled_mapping.has_value()) {
      config.scaled_mapping = *options.scaled_mapping;
    }
    config.mapping_override = options.mapping_override;
    return MakeAdapter<core::CgrxIndex<Key>>("cgrx", config);
  });
  factory->Register("cgrxu", [](const IndexOptions& options) {
    core::CgrxuConfig config;
    config.node_bytes = options.node_bytes;
    config.representation = options.representation;
    if (options.scaled_mapping.has_value()) {
      config.scaled_mapping = *options.scaled_mapping;
    }
    config.mapping_override = options.mapping_override;
    return MakeAdapter<core::CgrxuIndex<Key>>("cgrxu", config);
  });
  factory->Register("rx", [](const IndexOptions& options) {
    rx::RxConfig config;
    config.spare_capacity = options.spare_capacity;
    if (options.scaled_mapping.has_value()) {
      config.scaled_mapping = *options.scaled_mapping;
    }
    config.mapping_override = options.mapping_override;
    return MakeAdapter<rx::RxIndex<Key>>("rx", config);
  });
  factory->Register("sa", [](const IndexOptions&) {
    return MakeAdapter<baselines::SortedArray<Key>>("sa");
  });
  factory->Register("btree", [](const IndexOptions&) {
    return MakeAdapter<baselines::BPlusTree<Key>>("btree");
  });
  factory->Register("ht", [](const IndexOptions& options) {
    return MakeAdapter<baselines::HashTable<Key>>("ht", options.load_factor);
  });
  factory->Register("fullscan", [](const IndexOptions&) {
    return MakeAdapter<baselines::FullScan<Key>>("fullscan");
  });
  factory->Register("rtscan", [](const IndexOptions& options) {
    return MakeAdapter<baselines::RtScan<Key>>("rtscan",
                                               options.mapping_override);
  });
}

}  // namespace

template <typename Key>
IndexFactory<Key>& IndexFactory<Key>::Global() {
  static IndexFactory<Key>* factory = [] {
    auto* created = new IndexFactory<Key>();
    RegisterBuiltins(created);
    return created;
  }();
  return *factory;
}

template <typename Key>
bool IndexFactory<Key>::Register(std::string name, Creator creator) {
  if (creator == nullptr) {
    throw std::invalid_argument("null creator registered for index backend: " +
                                name);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  return creators_.emplace(std::move(name), std::move(creator)).second;
}

template <typename Key>
IndexPtr<Key> IndexFactory<Key>::Create(std::string_view name,
                                        const IndexOptions& options) const {
  constexpr std::string_view kShardedPrefix = "sharded:";
  if (name.substr(0, kShardedPrefix.size()) == kShardedPrefix) {
    const std::string_view inner = name.substr(kShardedPrefix.size());
    const std::uint32_t count = std::max<std::uint32_t>(1, options.shard_count);
    std::vector<IndexPtr<Key>> shards;
    shards.reserve(count);
    for (std::uint32_t s = 0; s < count; ++s) {
      shards.push_back(Create(inner, options));
    }
    auto sharded = std::make_shared<ShardedIndex<Key>>(std::string(name),
                                                       std::move(shards),
                                                       options.shard_scheme);
    // Normalize the recorded count so a snapshot reopens with exactly
    // the shards it was written with, even if the caller passed 0.
    IndexOptions recorded = options;
    recorded.shard_count = count;
    sharded->set_creation_options(std::move(recorded));
    return sharded;
  }
  Creator creator;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = creators_.find(name);
    if (it == creators_.end()) {
      std::string message = "unknown index backend: \"" + std::string(name) +
                            "\" (registered:";
      for (const auto& [known, unused] : creators_) {
        message += " " + known;
      }
      message +=
          "; prefix any of them with \"sharded:\" for a sharded composite)";
      throw std::invalid_argument(message);
    }
    creator = it->second;
  }
  IndexPtr<Key> index = creator(options);
  if (index != nullptr) index->set_creation_options(options);
  return index;
}

template <typename Key>
bool IndexFactory<Key>::Contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return creators_.find(name) != creators_.end();
}

template <typename Key>
std::vector<std::string> IndexFactory<Key>::RegisteredNames() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(creators_.size());
  for (const auto& [name, creator] : creators_) names.push_back(name);
  return names;
}

template class IndexFactory<std::uint32_t>;
template class IndexFactory<std::uint64_t>;

}  // namespace cgrx::api
