#ifndef CGRX_SRC_API_INDEX_H_
#define CGRX_SRC_API_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/api/execution_policy.h"
#include "src/api/index_options.h"
#include "src/core/types.h"

namespace cgrx::storage {
class SnapshotWriter;
class SnapshotReader;
}  // namespace cgrx::storage

namespace cgrx::api {

/// Which operations an index supports, mirroring paper Table I (e.g.
/// HT has no range lookups, RTScan no point lookups, SA/RX/cgRX update
/// only by rebuild -- which the adapters surface as `updates`).
struct Capabilities {
  bool point_lookup = false;
  bool range_lookup = false;
  bool updates = false;
  /// The backend applies a combined insert+delete wave natively: cgRXu
  /// in one sweep over the buckets its keys land in (paper Section IV),
  /// cgRX in one merge into its sorted array plus one scene rebuild (the
  /// paper's "cgRX [rebuild]", Fig. 18). When false, UpdateBatch() still
  /// works but decomposes into the two-sweep EraseBatch-then-InsertBatch
  /// path.
  bool combined_updates = false;
  /// The backend can be persisted by the storage layer
  /// (storage::SaveIndex / storage::OpenIndex): either through native
  /// snapshot hooks that serialize its built structures verbatim
  /// (cgRX/cgRXu/RX -- a load skips the rebuild entirely) or through
  /// the sorted key/rowID pair fallback that rebuilds on load (the
  /// baselines). SaveState/LoadState throw when false.
  bool persistence = false;
};

/// Introspection snapshot of one index instance. Replaces the scattered
/// `MemoryFootprintBytes()` / `rays_used` out-param plumbing: counters
/// are cumulative since construction (Build does NOT reset them; take
/// two snapshots and diff for phase-level numbers, as
/// examples/quickstart.cpp does). Batches accumulate chunk-locally and
/// merge into relaxed atomics once per chunk, so counters are cheap but
/// only exact once a batch has synchronized.
struct IndexStats {
  /// Permanent device-resident footprint in bytes (key/rowID storage +
  /// vertex buffer + BVH + optional miss filter).
  std::size_t memory_bytes = 0;
  /// Number of indexed entries.
  std::size_t entries = 0;
  /// Rays fired by the raytracing substrate (0 for non-RT indexes).
  std::uint64_t rays_fired = 0;
  /// Bucket post-filter searches executed (cgRX/cgRXu only).
  std::uint64_t buckets_probed = 0;
  /// Lookups rejected by the optional miss filter before firing rays.
  std::uint64_t filter_rejections = 0;
  /// Buckets visited by update waves (cgRXu only): every UpdateBatch
  /// wave visits each bucket its keys land in once. A combined
  /// insert+delete wave visits a bucket both sides touch once, an
  /// InsertBatch followed by an EraseBatch visits it twice.
  std::uint64_t update_buckets_swept = 0;

  /// Counter difference against an earlier snapshot of the same index:
  /// the standard way to report per-batch numbers (rays per batch,
  /// probes per batch) from the cumulative counters. memory_bytes and
  /// entries keep this (current) snapshot's values -- they are gauges,
  /// not counters.
  IndexStats Delta(const IndexStats& since) const {
    IndexStats delta = *this;
    delta.rays_fired -= since.rays_fired;
    delta.buckets_probed -= since.buckets_probed;
    delta.filter_rejections -= since.filter_rejections;
    delta.update_buckets_swept -= since.update_buckets_swept;
    return delta;
  }
};

/// Thrown when an operation outside an index's Capabilities is invoked.
class UnsupportedOperationError : public std::logic_error {
 public:
  UnsupportedOperationError(std::string_view index, std::string_view op)
      : std::logic_error(std::string(index) + " does not support " +
                         std::string(op)) {}
};

/// The unified public interface over every competitor of the paper's
/// evaluation (cgRX, cgRXu, RX, SA, B+, HT, FS, RTScan). `Key` is
/// std::uint32_t or std::uint64_t, the two widths the paper evaluates.
///
/// All query/update entry points are batched (the only shape that makes
/// sense for a GPU-resident index) and take an ExecutionPolicy that
/// decides how the batch is distributed over the kernel-launch
/// substrate. Results land in caller-provided disjoint slots, so
/// parallel execution is byte-identical to serial execution.
///
/// Operations outside `capabilities()` throw UnsupportedOperationError;
/// callers driving heterogeneous index sets (the benchmark harness, a
/// future serving layer) check capabilities first.
template <typename Key>
class Index {
 public:
  using KeyType = Key;

  virtual ~Index() = default;

  /// Name of the backend ("cgrx", "rx", ...), as accepted by
  /// MakeIndex().
  virtual std::string_view name() const = 0;

  virtual Capabilities capabilities() const = 0;

  /// Bulk-loads `keys` with rowID = position (the paper's convention).
  virtual void Build(std::vector<Key> keys) = 0;

  /// Bulk-loads explicit key/rowID pairs (unsorted). Throws
  /// std::invalid_argument, leaving the index as it was, when the two
  /// vectors differ in size.
  virtual void Build(std::vector<Key> keys,
                     std::vector<std::uint32_t> row_ids) = 0;

  /// Batched point lookups: results[i] receives the aggregate of all
  /// rowIDs matching keys[i].
  void PointLookupBatch(const Key* keys, std::size_t count,
                        core::LookupResult* results,
                        const ExecutionPolicy& policy = {}) const {
    DoPointLookupBatch(keys, count, results, policy);
  }

  /// Batched range lookups over inclusive [lo, hi] ranges.
  void RangeLookupBatch(const core::KeyRange<Key>* ranges, std::size_t count,
                        core::LookupResult* results,
                        const ExecutionPolicy& policy = {}) const {
    DoRangeLookupBatch(ranges, count, results, policy);
  }

  /// Inserts a batch of key/rowID pairs (incrementally or by rebuild,
  /// depending on the backend -- paper Table I): an UpdateBatch wave
  /// without erases.
  void InsertBatch(const std::vector<Key>& keys,
                   const std::vector<std::uint32_t>& row_ids,
                   const ExecutionPolicy& policy = {}) {
    UpdateBatch(keys, row_ids, {}, policy);
  }

  /// Deletes one instance per requested key (multiset semantics); keys
  /// not present are ignored. An UpdateBatch wave without inserts.
  void EraseBatch(const std::vector<Key>& keys,
                  const ExecutionPolicy& policy = {}) {
    UpdateBatch({}, {}, keys, policy);
  }

  /// Applies one combined update wave: erases plus inserts, with keys
  /// appearing on both sides cancelled pairwise before anything touches
  /// the structure (the paper's cgRXu wave semantics, Section IV).
  /// Surviving erases apply before surviving inserts. Backends reporting
  /// `capabilities().combined_updates` execute the wave natively: cgRXu
  /// in one pass that visits each touched bucket once, cgRX in one merge
  /// plus one scene rebuild (the paper's cgRX [rebuild]). Everything
  /// else runs its own erase and then its own insert (IndexAdapter).
  /// Throws std::invalid_argument, leaving the index as it was, when
  /// the insert keys and rows differ in size.
  /// Batches are taken by value because the wave is sorted in place.
  void UpdateBatch(std::vector<Key> insert_keys,
                   std::vector<std::uint32_t> insert_rows,
                   std::vector<Key> erase_keys,
                   const ExecutionPolicy& policy = {}) {
    if (insert_keys.size() != insert_rows.size()) {
      throw std::invalid_argument(
          "UpdateBatch: insert_keys/insert_rows size mismatch");
    }
    DoUpdateBatch(std::move(insert_keys), std::move(insert_rows),
                  std::move(erase_keys), policy);
  }

  virtual IndexStats Stats() const = 0;

  /// Serializes the index's state into named snapshot sections
  /// (capability `persistence`; storage::SaveIndex drives this and adds
  /// framing, checksums and the reconstruction metadata). Throws
  /// UnsupportedOperationError for backends without persistence.
  virtual void SaveState(storage::SnapshotWriter*) const {
    throw UnsupportedOperationError(name(), "persistence");
  }

  /// Restores state saved by SaveState into this (freshly constructed,
  /// equivalently configured) instance -- storage::OpenIndex creates
  /// the instance from the snapshot's recorded options first, then
  /// calls this.
  virtual void LoadState(const storage::SnapshotReader&) {
    throw UnsupportedOperationError(name(), "persistence");
  }

  /// The IndexOptions this index was created from. MakeIndex stamps
  /// them at creation; a default-constructed set is returned for
  /// indexes built outside MakeIndex. Snapshots persist these so
  /// OpenIndex can recreate an equivalent backend.
  const IndexOptions& creation_options() const { return creation_options_; }
  void set_creation_options(IndexOptions options) {
    creation_options_ = std::move(options);
  }

  virtual std::size_t size() const = 0;

  // Vector conveniences over the pointer/count entry points.
  void PointLookupBatch(const std::vector<Key>& keys,
                        std::vector<core::LookupResult>* results,
                        const ExecutionPolicy& policy = {}) const {
    results->resize(keys.size());
    PointLookupBatch(keys.data(), keys.size(), results->data(), policy);
  }

  void RangeLookupBatch(const std::vector<core::KeyRange<Key>>& ranges,
                        std::vector<core::LookupResult>* results,
                        const ExecutionPolicy& policy = {}) const {
    results->resize(ranges.size());
    RangeLookupBatch(ranges.data(), ranges.size(), results->data(), policy);
  }

 protected:
  virtual void DoPointLookupBatch(const Key*, std::size_t,
                                  core::LookupResult*,
                                  const ExecutionPolicy&) const {
    throw UnsupportedOperationError(name(), "point lookups");
  }

  virtual void DoRangeLookupBatch(const core::KeyRange<Key>*, std::size_t,
                                  core::LookupResult*,
                                  const ExecutionPolicy&) const {
    throw UnsupportedOperationError(name(), "range lookups");
  }

  /// The one update hook: InsertBatch and EraseBatch reach it as waves
  /// with one side empty.
  virtual void DoUpdateBatch(std::vector<Key>, std::vector<std::uint32_t>,
                             std::vector<Key>, const ExecutionPolicy&) {
    throw UnsupportedOperationError(name(), "updates");
  }

 private:
  IndexOptions creation_options_;
};

using Index32 = Index<std::uint32_t>;
using Index64 = Index<std::uint64_t>;

template <typename Key>
using IndexPtr = std::shared_ptr<Index<Key>>;

}  // namespace cgrx::api

#endif  // CGRX_SRC_API_INDEX_H_
