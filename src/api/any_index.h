#ifndef CGRX_SRC_API_ANY_INDEX_H_
#define CGRX_SRC_API_ANY_INDEX_H_

#include <cassert>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "src/api/factory.h"
#include "src/api/index.h"
#include "src/core/types.h"

namespace cgrx::api {

/// Key-width-erased handle over an Index<uint32_t> or Index<uint64_t>.
/// Exposes the 64-bit batch interface and narrows keys on entry for
/// 32-bit backends, so one driver loop (the benchmark harness, a
/// serving layer) can hold any index abstractly. Copies share the
/// underlying index.
class AnyIndex {
 public:
  AnyIndex() = default;
  explicit AnyIndex(IndexPtr<std::uint32_t> index)
      : index32_(std::move(index)) {}
  explicit AnyIndex(IndexPtr<std::uint64_t> index)
      : index64_(std::move(index)) {}

  explicit operator bool() const {
    return index32_ != nullptr || index64_ != nullptr;
  }

  int key_bits() const { return index32_ != nullptr ? 32 : 64; }

  std::string_view name() const {
    return index32_ != nullptr ? index32_->name() : index64_->name();
  }

  Capabilities capabilities() const {
    return index32_ != nullptr ? index32_->capabilities()
                               : index64_->capabilities();
  }

  void Build(const std::vector<std::uint64_t>& keys) {
    if (index32_ != nullptr) {
      index32_->Build(Narrow(keys));
    } else {
      index64_->Build(std::vector<std::uint64_t>(keys));
    }
  }

  void PointLookupBatch(const std::vector<std::uint64_t>& keys,
                        std::vector<core::LookupResult>* results,
                        const ExecutionPolicy& policy = {}) const {
    if (index32_ != nullptr) {
      index32_->PointLookupBatch(Narrow(keys), results, policy);
    } else {
      index64_->PointLookupBatch(keys, results, policy);
    }
  }

  void RangeLookupBatch(
      const std::vector<core::KeyRange<std::uint64_t>>& ranges,
      std::vector<core::LookupResult>* results,
      const ExecutionPolicy& policy = {}) const {
    if (index32_ != nullptr) {
      std::vector<core::KeyRange<std::uint32_t>> narrow(ranges.size());
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        narrow[i] = {static_cast<std::uint32_t>(ranges[i].lo),
                     static_cast<std::uint32_t>(ranges[i].hi)};
      }
      index32_->RangeLookupBatch(narrow, results, policy);
    } else {
      index64_->RangeLookupBatch(ranges, results, policy);
    }
  }

  void InsertBatch(const std::vector<std::uint64_t>& keys,
                   const std::vector<std::uint32_t>& row_ids,
                   const ExecutionPolicy& policy = {}) {
    if (index32_ != nullptr) {
      index32_->InsertBatch(Narrow(keys), row_ids, policy);
    } else {
      index64_->InsertBatch(keys, row_ids, policy);
    }
  }

  void EraseBatch(const std::vector<std::uint64_t>& keys,
                  const ExecutionPolicy& policy = {}) {
    if (index32_ != nullptr) {
      index32_->EraseBatch(Narrow(keys), policy);
    } else {
      index64_->EraseBatch(keys, policy);
    }
  }

  void UpdateBatch(const std::vector<std::uint64_t>& insert_keys,
                   const std::vector<std::uint32_t>& insert_rows,
                   const std::vector<std::uint64_t>& erase_keys,
                   const ExecutionPolicy& policy = {}) {
    if (index32_ != nullptr) {
      index32_->UpdateBatch(Narrow(insert_keys), insert_rows,
                            Narrow(erase_keys), policy);
    } else {
      index64_->UpdateBatch(insert_keys, insert_rows, erase_keys, policy);
    }
  }

  IndexStats Stats() const {
    return index32_ != nullptr ? index32_->Stats() : index64_->Stats();
  }

  std::size_t size() const {
    return index32_ != nullptr ? index32_->size() : index64_->size();
  }

  void SaveState(storage::SnapshotWriter* out) const {
    if (index32_ != nullptr) {
      index32_->SaveState(out);
    } else {
      index64_->SaveState(out);
    }
  }

  void LoadState(const storage::SnapshotReader& in) {
    if (index32_ != nullptr) {
      index32_->LoadState(in);
    } else {
      index64_->LoadState(in);
    }
  }

  const IndexPtr<std::uint32_t>& as32() const { return index32_; }
  const IndexPtr<std::uint64_t>& as64() const { return index64_; }

 private:
  static std::vector<std::uint32_t> Narrow(
      const std::vector<std::uint64_t>& keys) {
    return std::vector<std::uint32_t>(keys.begin(), keys.end());
  }

  IndexPtr<std::uint32_t> index32_;
  IndexPtr<std::uint64_t> index64_;
};

/// Factory convenience for width-erased construction; `key_bits` is 32
/// or 64.
inline AnyIndex MakeAnyIndex(std::string_view name, int key_bits,
                             const IndexOptions& options = {}) {
  assert(key_bits == 32 || key_bits == 64);
  if (key_bits == 32) {
    return AnyIndex(MakeIndex<std::uint32_t>(name, options));
  }
  return AnyIndex(MakeIndex<std::uint64_t>(name, options));
}

}  // namespace cgrx::api

#endif  // CGRX_SRC_API_ANY_INDEX_H_
