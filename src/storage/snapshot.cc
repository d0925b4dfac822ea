#include "src/storage/snapshot.h"

#include <utility>

namespace cgrx::storage {

void EncodeIndexOptions(const api::IndexOptions& options,
                        util::ByteWriter* out) {
  out->WriteU32(options.bucket_size);
  out->WriteU8(static_cast<std::uint8_t>(options.representation));
  out->WriteDouble(options.miss_filter_bits_per_key);
  out->WriteU32(options.node_bytes);
  out->WriteDouble(options.load_factor);
  out->WriteDouble(options.spare_capacity);
  out->WriteU8(options.scaled_mapping.has_value()
                   ? (*options.scaled_mapping ? 2 : 1)
                   : 0);
  out->WriteU32(options.shard_count);
  out->WriteU8(static_cast<std::uint8_t>(options.shard_scheme));
  out->WriteBool(options.mapping_override.has_value());
  if (options.mapping_override.has_value()) {
    const util::KeyMapping& m = *options.mapping_override;
    out->WriteI32(m.x_bits());
    out->WriteI32(m.y_bits());
    out->WriteI32(m.z_bits());
    out->WriteI32(m.y_scale_log2());
    out->WriteI32(m.z_scale_log2());
  }
}

api::IndexOptions DecodeIndexOptions(util::ByteReader* in) {
  api::IndexOptions options;
  options.bucket_size = in->ReadU32();
  options.representation = static_cast<core::Representation>(in->ReadU8());
  options.miss_filter_bits_per_key = in->ReadDouble();
  options.node_bytes = in->ReadU32();
  options.load_factor = in->ReadDouble();
  options.spare_capacity = in->ReadDouble();
  const std::uint8_t scaled = in->ReadU8();
  if (scaled != 0) options.scaled_mapping = scaled == 2;
  options.shard_count = in->ReadU32();
  options.shard_scheme = static_cast<api::ShardScheme>(in->ReadU8());
  if (in->ReadBool()) {
    const int x_bits = in->ReadI32();
    const int y_bits = in->ReadI32();
    const int z_bits = in->ReadI32();
    const int y_log2 = in->ReadI32();
    const int z_log2 = in->ReadI32();
    options.mapping_override =
        util::KeyMapping(x_bits, y_bits, z_bits, y_log2, z_log2);
  }
  return options;
}

template <typename Key>
void SaveIndex(const api::Index<Key>& index,
               const std::filesystem::path& path,
               const SaveOptions& options) {
  SnapshotWriter writer;
  EncodeIndexOptions(index.creation_options(),
                     writer.AddSection("index.options"));
  index.SaveState(&writer);

  SnapshotInfo info;
  info.key_bits = static_cast<std::uint32_t>(sizeof(Key)) * 8;
  info.backend = std::string(index.name());
  info.entries = index.size();
  info.epoch = options.epoch;
  WriteSnapshotFile(path, info, std::move(writer));
}

template <typename Key>
api::IndexPtr<Key> OpenIndex(const std::filesystem::path& path,
                             const OpenOptions& options) {
  SnapshotInfo info;
  const SnapshotReader reader = ReadSnapshotFile(path, &info);
  constexpr std::uint32_t kKeyBits =
      static_cast<std::uint32_t>(sizeof(Key)) * 8;
  if (info.key_bits != kKeyBits) {
    throw Error(path.string() + ": snapshot holds " +
                std::to_string(info.key_bits) + "-bit keys, opened as " +
                std::to_string(kKeyBits) + "-bit");
  }
  util::ByteReader options_reader = reader.Section("index.options");
  const api::IndexOptions index_options =
      DecodeIndexOptions(&options_reader);
  api::IndexPtr<Key> index =
      api::MakeIndex<Key>(info.backend, index_options);
  index->LoadState(reader);
  if (index->size() != info.entries) {
    throw CorruptionError(
        path.string() + ": restored " + std::to_string(index->size()) +
        " entries, header records " + std::to_string(info.entries));
  }
  if (options.epoch_out != nullptr) *options.epoch_out = info.epoch;
  return index;
}

template void SaveIndex<std::uint32_t>(const api::Index<std::uint32_t>&,
                                       const std::filesystem::path&,
                                       const SaveOptions&);
template void SaveIndex<std::uint64_t>(const api::Index<std::uint64_t>&,
                                       const std::filesystem::path&,
                                       const SaveOptions&);
template api::IndexPtr<std::uint32_t> OpenIndex<std::uint32_t>(
    const std::filesystem::path&, const OpenOptions&);
template api::IndexPtr<std::uint64_t> OpenIndex<std::uint64_t>(
    const std::filesystem::path&, const OpenOptions&);

}  // namespace cgrx::storage
