#ifndef CGRX_SRC_STORAGE_FORMAT_H_
#define CGRX_SRC_STORAGE_FORMAT_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/serial.h"

namespace cgrx::storage {

// ---------------------------------------------------------------------
// Errors. Every failure mode callers may want to distinguish gets its
// own type: I/O trouble (Error), damaged bytes (CorruptionError), and a
// well-formed file written by an incompatible format revision
// (VersionMismatchError -- the one a fleet rollout hits, so its message
// names both versions).
// ---------------------------------------------------------------------

/// Base class of all persistence failures.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Checksum mismatch, truncated payload, malformed framing.
class CorruptionError : public Error {
 public:
  explicit CorruptionError(const std::string& what) : Error(what) {}
};

/// Magic/version mismatch: the file is intact but written by a format
/// revision this binary does not speak.
class VersionMismatchError : public Error {
 public:
  explicit VersionMismatchError(const std::string& what) : Error(what) {}
};

// ---------------------------------------------------------------------
// Snapshot format constants (DESIGN.md Section 12).
// ---------------------------------------------------------------------

/// File magic of a snapshot ("CGRXSNP\0").
inline constexpr std::uint64_t kSnapshotMagic = 0x0050'4E53'5852'4743ULL;
/// Current snapshot format version. Bump on any incompatible layout
/// change; readers reject other versions with VersionMismatchError.
inline constexpr std::uint32_t kSnapshotVersion = 4;
/// Per-section frame magic ("SECT").
inline constexpr std::uint32_t kSectionMagic = 0x54434553u;
/// Payload checksum granularity: each section frame carries one
/// CRC-32C per 4 MiB chunk of its payload, so checksum computation and
/// verification parallelize across chunks on the TaskScheduler even
/// when one section (a 10M-key bucket array) dominates the file.
inline constexpr std::size_t kSectionChunkBytes = std::size_t{4} << 20;

/// Snapshot header metadata: what an opener needs before touching any
/// section -- which backend wrote the state, at which key width, how
/// many entries it held, and the update epoch it represents.
struct SnapshotInfo {
  std::uint32_t key_bits = 0;
  std::string backend;
  std::uint64_t entries = 0;
  std::uint64_t epoch = 0;
};

// ---------------------------------------------------------------------
// Section containers.
// ---------------------------------------------------------------------

/// Collects the named sections of one snapshot before they are framed
/// and written. A backend's SaveState() adds one section per logical
/// structure ("buckets", "scene", ...); composites hand each child a
/// Sub() writer whose prefix ("shard0.") namespaces the child's section
/// names, which is how a ShardedIndex gets per-shard sections without
/// the children knowing they are nested.
///
/// AddSection is thread-safe (a ShardedIndex serializes its shards in
/// parallel on the TaskScheduler); the returned ByteWriter is owned by
/// the snapshot and must only be used by the caller that added it.
/// Section names are unique per snapshot; re-adding a name throws.
class SnapshotWriter {
 public:
  SnapshotWriter() : state_(std::make_shared<State>()) {}

  /// A writer that prefixes every added section name (composition
  /// scope). Shares the underlying section set.
  SnapshotWriter Sub(std::string_view prefix) const {
    SnapshotWriter sub = *this;
    sub.prefix_ += prefix;
    return sub;
  }

  util::ByteWriter* AddSection(std::string_view name);

  /// All (name, payload) pairs added so far, sorted by name -- the
  /// deterministic on-disk section order. Moves the payloads out.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
  TakeSections();

 private:
  struct State {
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<util::ByteWriter>> sections;
  };

  std::shared_ptr<State> state_;
  std::string prefix_;
};

/// Read-side counterpart: the verified sections of a loaded snapshot.
/// Section() borrows a payload by name (throwing CorruptionError when a
/// required section is absent); Sub() scopes lookups under a prefix for
/// composite loads. Payloads are zero-copy views into the single file
/// buffer (kept alive by shared ownership), and readers are cheap value
/// types, so parallel shard loads need no locking and no duplication of
/// multi-hundred-megabyte state.
class SnapshotReader {
 public:
  struct Span {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
  };
  using SectionMap = std::map<std::string, Span, std::less<>>;

  SnapshotReader(std::shared_ptr<const void> file_keepalive,
                 std::shared_ptr<const SectionMap> sections)
      : file_keepalive_(std::move(file_keepalive)),
        sections_(std::move(sections)) {}

  SnapshotReader Sub(std::string_view prefix) const {
    SnapshotReader sub = *this;
    sub.prefix_ += prefix;
    return sub;
  }

  bool Has(std::string_view name) const;

  /// A bounds-checked reader over the named section's payload.
  util::ByteReader Section(std::string_view name) const;

 private:
  std::shared_ptr<const void> file_keepalive_;  ///< The mapped file.
  std::shared_ptr<const SectionMap> sections_;
  std::string prefix_;
};

// ---------------------------------------------------------------------
// File framing.
// ---------------------------------------------------------------------

/// Writes `writer`'s sections to `path` as one snapshot file:
/// CRC-guarded header (magic, version, key width, backend, entries,
/// epoch, section count), then one frame per section (name, payload
/// length, per-4MiB-chunk payload CRC-32Cs, frame CRC) followed by its
/// payload bytes. All chunk checksums across all sections compute in
/// one parallel sweep on the TaskScheduler. The file is written to a
/// temporary sibling, fsync'd, and renamed into place, so a crash
/// mid-write never leaves a half-written file under `path`.
void WriteSnapshotFile(const std::filesystem::path& path,
                       const SnapshotInfo& info, SnapshotWriter writer);

/// Reads and verifies a snapshot file: header magic/version/CRC first
/// (version mismatch throws VersionMismatchError naming both versions),
/// then every section frame, with all payload chunk checksums verified
/// in one parallel sweep before any payload is handed to a backend.
/// Fills `*info` from the header.
SnapshotReader ReadSnapshotFile(const std::filesystem::path& path,
                                SnapshotInfo* info);

}  // namespace cgrx::storage

#endif  // CGRX_SRC_STORAGE_FORMAT_H_
