// Quickstart for the unified public API: build any paper competitor
// by name through MakeIndex, run batched point and range lookups
// under an execution policy, introspect the index through IndexStats,
// apply a combined update wave, and serve the index asynchronously
// through IndexService.
//
//   ./quickstart
#include <cstdint>
#include <iostream>
#include <vector>

#include "src/api/factory.h"
#include "src/api/index.h"
#include "src/api/service.h"
#include "src/util/workloads.h"

int main() {
  using cgrx::api::ExecutionPolicy;
  using cgrx::api::IndexOptions;
  using cgrx::api::IndexStats;
  using cgrx::core::KeyRange;
  using cgrx::core::LookupResult;

  // A shuffled column of 1M distinct 64-bit keys; a key's position in
  // the column is its rowID.
  cgrx::util::KeySetConfig workload;
  workload.count = 1 << 20;
  workload.key_bits = 64;
  workload.uniformity = 0.5;  // Half dense, half drawn uniformly.
  const std::vector<std::uint64_t> column = cgrx::util::MakeKeySet(workload);

  // Any competitor of the paper's evaluation is one MakeIndex call:
  // "cgrx", "cgrxu", "rx", "sa", "btree", "ht", "fullscan", "rtscan".
  // Here: cgRX with the paper's recommended configuration (bucket size
  // 32, optimized representation, scaled key mapping).
  IndexOptions options;
  options.bucket_size = 32;
  const auto index = cgrx::api::MakeIndex<std::uint64_t>("cgrx", options);
  index->Build(std::vector<std::uint64_t>(column));

  const IndexStats built = index->Stats();
  std::cout << "indexed " << built.entries << " keys\n"
            << "memory footprint: " << built.memory_bytes / 1024 << " KiB ("
            << static_cast<double>(built.memory_bytes) /
                   static_cast<double>(built.entries)
            << " B/key)\n\n";

  // Batched point lookups, one logical device thread per query. The
  // execution policy picks serial or pool-parallel execution; results
  // are identical either way.
  std::vector<std::uint64_t> batch(column.begin(), column.begin() + 1024);
  std::vector<LookupResult> results;
  index->PointLookupBatch(batch, &results, ExecutionPolicy::Parallel());
  std::size_t found = 0;
  for (const LookupResult& r : results) found += r.match_count;

  // IndexStats counters replace per-call out-params: the delta over the
  // batch gives rays fired and buckets probed.
  const IndexStats after = index->Stats();
  std::cout << "batch of " << batch.size() << " lookups: " << found
            << " matches, " << (after.rays_fired - built.rays_fired)
            << " rays fired, " << (after.buckets_probed - built.buckets_probed)
            << " buckets probed\n";

  // A miss is detected during the bucket post-filter.
  std::vector<LookupResult> miss;
  index->PointLookupBatch({column[123456] ^ 1}, &miss);
  std::cout << "point lookup of absent key: "
            << (miss[0].IsMiss() ? "miss" : "unexpected hit") << "\n";

  // Range lookup: one ray sequence for the lower bound, then a scan of
  // the contiguous key-rowID array.
  std::vector<KeyRange<std::uint64_t>> ranges = {{0, 1 << 16}};
  std::vector<LookupResult> range_results;
  index->RangeLookupBatch(ranges, &range_results);
  std::cout << "range [0, 2^16] matched " << range_results[0].match_count
            << " entries\n\n";

  // Updates are combined waves: erases and inserts in one UpdateBatch
  // call, keys on both sides cancelling pairwise. Both report
  // capabilities().combined_updates: cgRXu applies the whole wave in one
  // pass over the buckets it touches, and cgRX -- here -- in one merge
  // into its sorted array plus one scene rebuild (the paper's cgRX
  // [rebuild]). Every other backend decomposes with identical results.
  const std::uint64_t retired = column[0];
  index->UpdateBatch(/*insert_keys=*/{1, 2, 3},
                     /*insert_rows=*/{900001, 900002, 900003},
                     /*erase_keys=*/{retired});
  std::cout << "after one update wave (+3/-1): " << index->size()
            << " keys\n";

  // Serving: a sharded cgRXu behind the async submission queue. Tickets
  // are std::futures; the epoch in each ticket names the update wave
  // the lookup observed (exactly one writer applies waves in admission
  // order).
  IndexOptions serving_options;
  serving_options.shard_count = 4;  // "sharded:" composes via the factory.
  const auto sharded =
      cgrx::api::MakeIndex<std::uint64_t>("sharded:cgrxu", serving_options);
  sharded->Build(std::vector<std::uint64_t>(column));
  cgrx::api::IndexService<std::uint64_t> service(sharded);
  auto before_ticket = service.SubmitPointLookups({42});
  auto wave_ticket = service.SubmitUpdate({42}, {424242}, {});
  auto after_ticket = service.SubmitPointLookups({42});
  const auto before_wave = before_ticket.get();
  const auto after_wave = after_ticket.get();
  std::cout << "service: key 42 matched " << before_wave.results[0].match_count
            << " at epoch " << before_wave.epoch << ", then "
            << after_wave.results[0].match_count << " at epoch "
            << after_wave.epoch << " (wave completed epoch "
            << wave_ticket.get().epoch << ")\n";
  return 0;
}
