#ifndef CGRX_SRC_STORAGE_SNAPSHOT_H_
#define CGRX_SRC_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <filesystem>
#include <string>

#include "src/api/factory.h"
#include "src/api/index.h"
#include "src/storage/format.h"

namespace cgrx::storage {

/// Versioned, CRC-checksummed snapshot of one api::Index (any backend
/// with Capabilities::persistence, sharded composites included). The
/// file carries everything OpenIndex needs to reconstruct the index:
/// backend name, key width, entry count, epoch, the IndexOptions the
/// index was created from, and the backend's own state sections --
/// serialized structures for cgRX/cgRXu/RX (load skips the rebuild),
/// sorted key/rowID pairs for the baselines (load rebuilds).
struct SaveOptions {
  /// Update epoch recorded in the header (what the snapshot's state
  /// represents). The durable service passes the service epoch; 0 for
  /// a standalone save.
  std::uint64_t epoch = 0;
};

struct OpenOptions {
  /// Receives the header's epoch when non-null (the log-replay cursor
  /// for crash recovery).
  std::uint64_t* epoch_out = nullptr;
};

/// Writes a snapshot of `index` to `path` (atomically: temp file +
/// rename). Throws UnsupportedOperationError if the backend lacks
/// persistence, Error on I/O failure.
template <typename Key>
void SaveIndex(const api::Index<Key>& index,
               const std::filesystem::path& path,
               const SaveOptions& options = {});

/// Opens a snapshot written by SaveIndex: verifies framing, version and
/// checksums, recreates the backend through MakeIndex from the
/// recorded name and options, restores its state, and cross-checks the
/// restored entry count against the header. Throws
/// VersionMismatchError for other format revisions, CorruptionError for
/// damaged bytes, Error for a key-width or unknown-backend mismatch.
template <typename Key>
api::IndexPtr<Key> OpenIndex(const std::filesystem::path& path,
                             const OpenOptions& options = {});

/// The options codec the snapshot header embeds (exposed for tests).
void EncodeIndexOptions(const api::IndexOptions& options,
                        util::ByteWriter* out);
api::IndexOptions DecodeIndexOptions(util::ByteReader* in);

extern template void SaveIndex<std::uint32_t>(
    const api::Index<std::uint32_t>&, const std::filesystem::path&,
    const SaveOptions&);
extern template void SaveIndex<std::uint64_t>(
    const api::Index<std::uint64_t>&, const std::filesystem::path&,
    const SaveOptions&);
extern template api::IndexPtr<std::uint32_t> OpenIndex<std::uint32_t>(
    const std::filesystem::path&, const OpenOptions&);
extern template api::IndexPtr<std::uint64_t> OpenIndex<std::uint64_t>(
    const std::filesystem::path&, const OpenOptions&);

}  // namespace cgrx::storage

#endif  // CGRX_SRC_STORAGE_SNAPSHOT_H_
