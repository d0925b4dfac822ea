#ifndef CGRX_SRC_API_ADAPTERS_H_
#define CGRX_SRC_API_ADAPTERS_H_

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/api/index.h"
#include "src/core/types.h"
#include "src/core/update_wave.h"
#include "src/storage/format.h"
#include "src/util/radix_sort.h"

namespace cgrx::api {

/// Adapts any concrete index implementation to the Index<Key>
/// interface. Capabilities are derived at compile time from the
/// operations the implementation actually offers (requires-expression
/// detection), so a single template covers all eight competitors.
/// Unsupported entry points keep the base-class throwing defaults.
///
/// Implementations that expose `stat_counters()` (cgRX, cgRXu, RX)
/// contribute their ray/bucket/filter counters to Stats(); the rest
/// report footprint and entry count only.
template <typename Impl>
class IndexAdapter final : public Index<typename Impl::KeyType> {
 public:
  using Key = typename Impl::KeyType;

  static constexpr bool kHasPointLookup =
      requires(const Impl& i, const Key* k, std::size_t n,
               core::LookupResult* r, const ExecutionPolicy& p) {
        i.PointLookupBatch(k, n, r, p);
      };
  static constexpr bool kHasRangeLookup =
      requires(const Impl& i, const core::KeyRange<Key>* g, std::size_t n,
               core::LookupResult* r, const ExecutionPolicy& p) {
        i.RangeLookupBatch(g, n, r, p);
      };
  static constexpr bool kHasUpdates =
      requires(Impl& i, const std::vector<Key>& k,
               const std::vector<std::uint32_t>& r) {
        i.InsertBatch(k, r);
        i.EraseBatch(k);
      };
  static constexpr bool kHasCombinedUpdates =
      requires(Impl& i, std::vector<Key> k, std::vector<std::uint32_t> r,
               std::vector<Key> d, const ExecutionPolicy& p) {
        i.UpdateBatch(std::move(k), std::move(r), std::move(d), p);
      };
  /// Native snapshot hooks: the implementation serializes its built
  /// structures verbatim (cgRX/cgRXu/RX), so a load skips the rebuild.
  static constexpr bool kHasNativeSnapshot =
      requires(const Impl& ci, Impl& i, storage::SnapshotWriter* w,
               const storage::SnapshotReader& r) {
        ci.SaveState(w);
        i.LoadState(r);
      };
  /// Pair-export fallback: the implementation can enumerate its live
  /// key/rowID entries, which the adapter persists sorted and rebuilds
  /// from on load (the baselines).
  static constexpr bool kHasExportEntries =
      requires(const Impl& i, std::vector<Key>* k,
               std::vector<std::uint32_t>* r) {
        i.ExportEntries(k, r);
      };

  template <typename... Args>
  explicit IndexAdapter(std::string name, Args&&... args)
      : name_(std::move(name)), impl_(std::forward<Args>(args)...) {}

  std::string_view name() const override { return name_; }

  Capabilities capabilities() const override {
    return Capabilities{kHasPointLookup, kHasRangeLookup, kHasUpdates,
                        kHasCombinedUpdates,
                        kHasNativeSnapshot || kHasExportEntries};
  }

  /// Persists the implementation: natively-snapshotting backends write
  /// their structures as-is; everything else falls back to sorted
  /// key/rowID pair sections ("pairs.keys"/"pairs.rows") that Build
  /// replays on load. A marker section records which path wrote the
  /// snapshot so a load rejects a mismatched file instead of
  /// misinterpreting it.
  void SaveState(storage::SnapshotWriter* out) const override {
    if constexpr (kHasNativeSnapshot) {
      out->AddSection("format")->WriteU8(0);  // 0 = native sections.
      impl_.SaveState(out);
    } else if constexpr (kHasExportEntries) {
      out->AddSection("format")->WriteU8(1);  // 1 = sorted pairs.
      std::vector<Key> keys;
      std::vector<std::uint32_t> rows;
      impl_.ExportEntries(&keys, &rows);
      util::RadixSortPairs(&keys, &rows,
                           static_cast<int>(sizeof(Key)) * 8);
      out->AddSection("pairs.keys")->WritePodVector(keys);
      out->AddSection("pairs.rows")->WritePodVector(rows);
    } else {
      Index<Key>::SaveState(out);
    }
  }

  void LoadState(const storage::SnapshotReader& in) override {
    if constexpr (kHasNativeSnapshot || kHasExportEntries) {
      util::ByteReader format = in.Section("format");
      const std::uint8_t mode = format.ReadU8();
      constexpr std::uint8_t kExpected = kHasNativeSnapshot ? 0 : 1;
      if (mode != kExpected) {
        throw storage::CorruptionError(
            std::string(name()) + ": snapshot state format " +
            std::to_string(mode) + ", this backend expects " +
            std::to_string(kExpected));
      }
      if constexpr (kHasNativeSnapshot) {
        impl_.LoadState(in);
      } else {
        util::ByteReader keys_reader = in.Section("pairs.keys");
        util::ByteReader rows_reader = in.Section("pairs.rows");
        std::vector<Key> keys = keys_reader.ReadPodVector<Key>();
        std::vector<std::uint32_t> rows =
            rows_reader.ReadPodVector<std::uint32_t>();
        if (keys.size() != rows.size()) {
          throw storage::CorruptionError(
              std::string(name()) + ": pairs sections disagree on entry "
              "count");
        }
        impl_.Build(std::move(keys), std::move(rows));
      }
    } else {
      Index<Key>::LoadState(in);
    }
  }

  void Build(std::vector<Key> keys) override {
    impl_.Build(std::move(keys));
  }

  void Build(std::vector<Key> keys,
             std::vector<std::uint32_t> row_ids) override {
    if (keys.size() != row_ids.size()) {
      throw std::invalid_argument("Build: keys/row_ids size mismatch");
    }
    impl_.Build(std::move(keys), std::move(row_ids));
  }

  IndexStats Stats() const override {
    IndexStats stats;
    stats.memory_bytes = impl_.MemoryFootprintBytes();
    stats.entries = impl_.size();
    if constexpr (requires(const Impl& i) { i.stat_counters(); }) {
      const core::LookupCounters& counters = impl_.stat_counters();
      stats.rays_fired = counters.rays_fired.load(std::memory_order_relaxed);
      stats.buckets_probed =
          counters.buckets_probed.load(std::memory_order_relaxed);
      stats.filter_rejections =
          counters.filter_rejections.load(std::memory_order_relaxed);
      stats.update_buckets_swept =
          counters.update_buckets_swept.load(std::memory_order_relaxed);
    }
    return stats;
  }

  std::size_t size() const override { return impl_.size(); }

  /// The wrapped implementation, for callers needing backend-specific
  /// introspection (e.g. CgrxIndex::ActiveTriangleCount()).
  Impl& impl() { return impl_; }
  const Impl& impl() const { return impl_; }

 protected:
  void DoPointLookupBatch(const Key* keys, std::size_t count,
                          core::LookupResult* results,
                          const ExecutionPolicy& policy) const override {
    if constexpr (kHasPointLookup) {
      impl_.PointLookupBatch(keys, count, results, policy);
    } else {
      Index<Key>::DoPointLookupBatch(keys, count, results, policy);
    }
  }

  void DoRangeLookupBatch(const core::KeyRange<Key>* ranges,
                          std::size_t count, core::LookupResult* results,
                          const ExecutionPolicy& policy) const override {
    if constexpr (kHasRangeLookup) {
      impl_.RangeLookupBatch(ranges, count, results, policy);
    } else {
      Index<Key>::DoRangeLookupBatch(ranges, count, results, policy);
    }
  }

  /// The one update dispatch. cgRX and cgRXu apply a wave natively:
  /// cgRXu in one bucket pass (paper Section IV), cgRX in one merge
  /// plus one scene rebuild. Every other backend runs its own EraseBatch
  /// and then its own InsertBatch, after core::CancelPairedUpdates when
  /// both sides hold keys: the routine the native waves run, so the
  /// semantics stay identical. A one-sided wave skips that sort and
  /// reaches the backend in caller order.
  void DoUpdateBatch(std::vector<Key> insert_keys,
                     std::vector<std::uint32_t> insert_rows,
                     std::vector<Key> erase_keys,
                     const ExecutionPolicy& policy) override {
    if constexpr (kHasCombinedUpdates) {
      impl_.UpdateBatch(std::move(insert_keys), std::move(insert_rows),
                        std::move(erase_keys), policy);
    } else if constexpr (kHasUpdates) {
      if (!insert_keys.empty() && !erase_keys.empty()) {
        core::CancelPairedUpdates(&insert_keys, &insert_rows, &erase_keys);
      }
      if (!erase_keys.empty()) impl_.EraseBatch(std::move(erase_keys));
      if (!insert_keys.empty()) {
        impl_.InsertBatch(std::move(insert_keys), std::move(insert_rows));
      }
    } else {
      Index<Key>::DoUpdateBatch(std::move(insert_keys),
                                std::move(insert_rows),
                                std::move(erase_keys), policy);
    }
  }

 private:
  std::string name_;
  Impl impl_;
};

/// Convenience: heap-allocates an adapter around an in-place
/// constructed implementation.
template <typename Impl, typename... Args>
std::shared_ptr<Index<typename Impl::KeyType>> MakeAdapter(std::string name,
                                                           Args&&... args) {
  return std::make_shared<IndexAdapter<Impl>>(std::move(name),
                                              std::forward<Args>(args)...);
}

}  // namespace cgrx::api

#endif  // CGRX_SRC_API_ADAPTERS_H_
