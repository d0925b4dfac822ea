#ifndef CGRX_SRC_API_FACTORY_H_
#define CGRX_SRC_API_FACTORY_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "src/api/index.h"
#include "src/api/index_options.h"
#include "src/api/sharded_index.h"

namespace cgrx::api {

/// The eight competitors of the paper's evaluation (Section VI / Table
/// I), sorted: the names MakeIndex accepts.
inline constexpr std::array<std::string_view, 8> kBackendNames = {
    "btree", "cgrx", "cgrxu", "fullscan", "ht", "rtscan", "rx", "sa"};

/// Creates one of kBackendNames, configured from `options`, and stamps
/// `options` on it (Index::creation_options). One "sharded:" prefix
/// composes a ShardedIndex over IndexOptions::shard_count instances of
/// the named backend, partitioned by IndexOptions::shard_scheme. Throws
/// std::invalid_argument for any other name, including a nested
/// "sharded:sharded:" prefix.
template <typename Key>
IndexPtr<Key> MakeIndex(std::string_view name,
                        const IndexOptions& options = {});

extern template IndexPtr<std::uint32_t> MakeIndex(std::string_view,
                                                  const IndexOptions&);
extern template IndexPtr<std::uint64_t> MakeIndex(std::string_view,
                                                  const IndexOptions&);

}  // namespace cgrx::api

#endif  // CGRX_SRC_API_FACTORY_H_
