#ifndef CGRX_SRC_CORE_CGRXU_INDEX_H_
#define CGRX_SRC_CORE_CGRXU_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/api/execution_policy.h"
#include "src/core/coherent.h"
#include "src/core/rep_scene.h"
#include "src/core/types.h"
#include "src/core/update_wave.h"
#include "src/storage/format.h"
#include "src/util/key_mapping.h"
#include "src/util/prefetch.h"
#include "src/util/radix_sort.h"

namespace cgrx::core {

/// Tuning knobs of cgRXu (paper Section IV). The paper configures the
/// node size in cache lines: 128 bytes ("1 cl", the default below) and
/// 64 bytes (".5 cl"), initially filled to 50%.
struct CgrxuConfig {
  std::uint32_t node_bytes = 128;
  double initial_fill = 0.5;
  Representation representation = Representation::kOptimized;
  bool scaled_mapping = true;
  bool enable_flipping = true;
  std::optional<util::KeyMapping> mapping_override;
};

/// cgRXu: the updatable variant of cgRX (paper Section IV). Each bucket
/// is a linked list of fixed-size nodes carved out of a slab that is
/// split into a representative-node region (one head node per bucket,
/// addressable directly from a triangle's primitive index) and a
/// linked-node region feeding node splits. Batch insertions/deletions
/// run one task per touched bucket, never touching the BVH -- which is
/// exactly how the paper avoids the post-update lookup collapse of RX.
///
/// A special overflow bucket with maxKey = +inf catches keys above the
/// largest bulk-loaded key.
template <typename Key>
class CgrxuIndex {
 public:
  using KeyType = Key;
  static constexpr int kKeyBits = static_cast<int>(sizeof(Key)) * 8;
  static constexpr std::uint32_t kInvalidNode = 0xffffffffu;

  explicit CgrxuIndex(const CgrxuConfig& config = {})
      : config_(config),
        mapping_(config.mapping_override.value_or(
            util::KeyMapping::ForKeyBits(kKeyBits, config.scaled_mapping))) {
    // Node layout: maxKey + next pointer + size header, then
    // capacity * (key, rowID) entries, all within node_bytes.
    constexpr std::size_t kHeaderBytes = sizeof(Key) + 4 + 2;
    const std::size_t payload =
        config_.node_bytes > kHeaderBytes ? config_.node_bytes - kHeaderBytes
                                          : 0;
    node_capacity_ = static_cast<std::uint32_t>(
        payload / (sizeof(Key) + sizeof(std::uint32_t)));
    if (node_capacity_ < 2) node_capacity_ = 2;
  }

  /// Bulk-loads with rowID = position.
  void Build(std::vector<Key> keys) {
    std::vector<std::uint32_t> rows(keys.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<std::uint32_t>(i);
    }
    Build(std::move(keys), std::move(rows));
  }

  /// Bulk-loads key/rowID pairs: sorts, partitions into buckets of
  /// initial_fill * node capacity keys ("every N/2-th key becomes the
  /// maxKey of a node"), creates one representative node per bucket plus
  /// the overflow bucket, and builds the triangle scene over the bucket
  /// maxKeys.
  ///
  /// Deviation from the paper's sketch: bucket boundaries are aligned to
  /// duplicate-group ends, so representatives are strictly increasing
  /// and the per-bucket key ranges (rep[b-1], rep[b]] stay disjoint
  /// under updates (the paper's routing assumes this implicitly; its
  /// update workloads use distinct keys). Oversized buckets bulk-load
  /// into a chain of several nodes.
  void Build(std::vector<Key> keys, std::vector<std::uint32_t> row_ids) {
    assert(keys.size() == row_ids.size());
    SortPairs(&keys, &row_ids);
    const std::size_t n = keys.size();
    const auto bucket_keys = static_cast<std::size_t>(
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     static_cast<double>(node_capacity_) *
                                     config_.initial_fill)));
    // Bucket boundaries, extended over duplicate groups.
    std::vector<std::size_t> bounds;  // bounds[b] = end index of bucket b.
    std::size_t pos = 0;
    while (pos < n) {
      std::size_t end = std::min(n, pos + bucket_keys);
      while (end < n && keys[end] == keys[end - 1]) ++end;
      bounds.push_back(end);
      pos = end;
    }
    num_data_buckets_ = static_cast<std::uint32_t>(bounds.size());
    const std::uint32_t total_heads = num_data_buckets_ + 1;  // + overflow.
    // Linked nodes needed for oversized initial buckets.
    std::uint32_t extra_nodes = 0;
    {
      std::size_t begin = 0;
      for (const std::size_t end : bounds) {
        const std::size_t count = end - begin;
        extra_nodes += static_cast<std::uint32_t>(
            (count + bucket_keys - 1) / bucket_keys - 1);
        begin = end;
      }
    }
    node_keys_.clear();
    node_rows_.clear();
    meta_.clear();
    allocated_nodes_ = 0;
    EnsureNodeCapacity(total_heads + extra_nodes +
                       std::max<std::uint32_t>(16, num_data_buckets_ / 4));
    next_free_.store(total_heads, std::memory_order_relaxed);
    rep_keys_.resize(num_data_buckets_);
    std::size_t begin = 0;
    for (std::uint32_t b = 0; b < num_data_buckets_; ++b) {
      const std::size_t end = bounds[b];
      rep_keys_[b] = keys[end - 1];
      // Fill the head node, chaining extra nodes for oversized buckets.
      std::uint32_t node = b;
      std::size_t cursor = begin;
      for (;;) {
        const std::size_t take = std::min(bucket_keys, end - cursor);
        NodeMeta& m = meta_[node];
        m.size = static_cast<std::uint16_t>(take);
        for (std::size_t i = 0; i < take; ++i) {
          NodeKeys(node)[i] = keys[cursor + i];
          NodeRows(node)[i] = row_ids[cursor + i];
        }
        cursor += take;
        if (cursor == end) {
          m.max_key = keys[end - 1];  // Chain tail carries the rep key.
          m.next = kInvalidNode;
          break;
        }
        m.max_key = keys[cursor - 1];
        m.next = AllocNode();
        node = m.next;
      }
      begin = end;
    }
    // Overflow bucket: maxKey = +inf sentinel, initially empty.
    NodeMeta& overflow = meta_[num_data_buckets_];
    overflow.next = kInvalidNode;
    overflow.size = 0;
    overflow.max_key = std::numeric_limits<Key>::max();
    total_size_ = n;

    // Scene over the bucket representatives (shared with cgRX).
    std::vector<std::uint64_t> reps(num_data_buckets_);
    std::vector<std::uint8_t> movable(num_data_buckets_);
    for (std::uint32_t b = 0; b < num_data_buckets_; ++b) {
      reps[b] = static_cast<std::uint64_t>(rep_keys_[b]);
      const std::size_t rep_idx = bounds[b] - 1;
      movable[b] = rep_idx + 1 >= n ||
                   mapping_.RowKey(static_cast<std::uint64_t>(
                       keys[rep_idx + 1])) != mapping_.RowKey(reps[b]);
    }
    RepScene::Options options;
    options.representation = config_.representation;
    options.enable_flipping = config_.enable_flipping;
    rep_scene_.Build(reps, movable, mapping_, options);
  }

  /// Point lookup: raytrace to the bucket, then walk the node chain
  /// ("a point lookup terminating at a representative node that has been
  /// split can simply follow the next pointers", Section IV).
  LookupResult PointLookup(Key key, int* rays_used = nullptr) const {
    LocalLookupCounters local;
    const LookupResult result = LookupCounted(key, key, rays_used, &local);
    counters_.Merge(local);
    return result;
  }

  /// Range lookup [lo, hi]: locate the bucket of `lo`, then scan node
  /// chains (and subsequent buckets) in key order.
  LookupResult RangeLookup(Key lo, Key hi) const {
    LocalLookupCounters local;
    const LookupResult result = LookupCounted(lo, hi, nullptr, &local);
    counters_.Merge(local);
    return result;
  }

  /// Batched point lookups through PipelinedBatch: stage 1 raytraces to
  /// the bucket and prefetches its head node, stage 2 walks the chain a
  /// few lookups later. Batches of at least kCoherentBatchMin keys run
  /// in approximate key order and results scatter back to their
  /// original slots.
  void PointLookupBatch(const Key* keys, std::size_t count,
                        LookupResult* results,
                        const api::ExecutionPolicy& policy = {}) const {
    PipelinedBatch(
        keys, count, 256, policy, &counters_, results,
        [this](Key key, LocalLookupCounters* local,
               rt::TraversalContext* ctx) {
          return Locate(key, key, local, ctx);
        },
        [this](Key key, std::optional<std::uint32_t> bucket) {
          return Scan(key, key, bucket);
        });
  }

  /// Batched range lookups, pipelined and coherence-scheduled by lower
  /// bound like PointLookupBatch.
  void RangeLookupBatch(const KeyRange<Key>* ranges, std::size_t count,
                        LookupResult* results,
                        const api::ExecutionPolicy& policy = {}) const {
    PipelinedBatch(
        ranges, count, 16, policy, &counters_, results,
        [this](const KeyRange<Key>& r, LocalLookupCounters* local,
               rt::TraversalContext* ctx) {
          return Locate(r.lo, r.hi, local, ctx);
        },
        [this](const KeyRange<Key>& r, std::optional<std::uint32_t> bucket) {
          return Scan(r.lo, r.hi, bucket);
        });
  }

  /// Touched buckets per task of an update wave: a wave that touches at
  /// most this many buckets applies inline on the calling thread.
  static constexpr std::size_t kWaveGrain = 64;

  /// Applies a batch of insertions and deletions (paper Section IV):
  /// both sides are sorted, keys appearing on both sides are eliminated
  /// pairwise, then one task per touched bucket applies deletions first
  /// and insertions second. Node splits allocate from the linked-node
  /// region; the BVH is never touched.
  ///
  /// Deviation from the paper's one-thread-per-bucket sweep: on a GPU
  /// an idle bucket's thread costs nothing, on a CPU it costs the
  /// wave's critical path. So the wave walks its sorted keys against
  /// the bucket boundaries with galloping searches and visits only the
  /// buckets it lands in: O(k log B) for a k-key wave over B buckets,
  /// never more than the O(k + B) of a full sweep.
  void UpdateBatch(std::vector<Key> insert_keys,
                   std::vector<std::uint32_t> insert_rows,
                   std::vector<Key> delete_keys,
                   const api::ExecutionPolicy& policy = {}) {
    assert(insert_keys.size() == insert_rows.size());
    // Shared wave preprocessing (sort + pairwise cancellation), the
    // same routine the api::Index two-sweep decomposition runs.
    CancelPairedUpdates(&insert_keys, &insert_rows, &delete_keys);
    // Worst case one split (one new node) per insertion; reserving up
    // front keeps the parallel phase allocation-free.
    EnsureNodeCapacity(next_free_.load(std::memory_order_relaxed) +
                       static_cast<std::uint32_t>(insert_keys.size()));
    const std::vector<WaveSlice> slices =
        SliceWave(insert_keys, delete_keys);
    // Each touched bucket counts once per wave, whatever mix of
    // insertions and deletions lands in it -- the counter
    // api::IndexStats surfaces as update_buckets_swept.
    counters_.update_buckets_swept.fetch_add(slices.size(),
                                             std::memory_order_relaxed);
    std::vector<std::int64_t> delta(slices.size(), 0);
    policy.For(slices.size(), kWaveGrain, [&](std::size_t s) {
      const WaveSlice& slice = slices[s];
      // Each side of a slice ascends, so each walk resumes where the
      // previous key's walk stopped instead of at the bucket head.
      std::uint32_t node = slice.bucket;
      for (std::size_t i = slice.del_lo; i < slice.del_hi; ++i) {
        if (DeleteOne(&node, delete_keys[i])) --delta[s];
      }
      node = slice.bucket;
      for (std::size_t i = slice.ins_lo; i < slice.ins_hi; ++i) {
        node = InsertOne(node, insert_keys[i], insert_rows[i]);
        ++delta[s];
      }
    });
    for (const std::int64_t d : delta) {
      total_size_ = static_cast<std::size_t>(
          static_cast<std::int64_t>(total_size_) + d);
    }
  }

  void InsertBatch(std::vector<Key> keys, std::vector<std::uint32_t> rows,
                   const api::ExecutionPolicy& policy = {}) {
    UpdateBatch(std::move(keys), std::move(rows), {}, policy);
  }

  void EraseBatch(std::vector<Key> keys,
                  const api::ExecutionPolicy& policy = {}) {
    UpdateBatch({}, {}, std::move(keys), policy);
  }

  /// Current footprint: every allocated node is charged at the
  /// configured node size (nodes may be partially occupied -- the paper
  /// makes the same accounting choice in Figure 18b), plus the bucket
  /// boundary array and the scene.
  std::size_t MemoryFootprintBytes() const {
    return static_cast<std::size_t>(allocated_nodes_) * config_.node_bytes +
           rep_keys_.size() * sizeof(Key) + rep_scene_.MemoryFootprintBytes();
  }

  /// Cumulative lookup-path counters feeding api::IndexStats.
  const LookupCounters& stat_counters() const { return counters_; }

  std::size_t size() const { return total_size_; }
  std::uint32_t node_capacity() const { return node_capacity_; }
  std::uint32_t num_buckets() const { return num_data_buckets_; }
  std::uint32_t used_nodes() const {
    return next_free_.load(std::memory_order_relaxed);
  }
  const CgrxuConfig& config() const { return config_; }
  const RepScene& rep_scene() const { return rep_scene_; }

  /// Structural invariant check used by the property tests. Returns
  /// false and fills `*error` on the first violation.
  bool ValidateInvariants(std::string* error) const;

  /// Native snapshot hook: persists the node slab (used prefix only --
  /// the spare tail of the allocation is re-reserved on load), the
  /// per-node metadata, the bucket boundaries and the representative
  /// scene, so a load restores the exact post-update structure
  /// including node chains and splits, without any rebuild.
  void SaveState(storage::SnapshotWriter* out) const {
    util::ByteWriter* w = out->AddSection("cgrxu.nodes");
    const std::uint32_t used = next_free_.load(std::memory_order_relaxed);
    w->WriteU32(node_capacity_);
    w->WriteU32(num_data_buckets_);
    w->WriteU32(used);
    w->WriteU32(allocated_nodes_);
    w->WriteU64(total_size_);
    for (std::uint32_t node = 0; node < used; ++node) {
      const NodeMeta& m = meta_[node];
      if constexpr (sizeof(Key) == 4) {
        w->WriteU32(static_cast<std::uint32_t>(m.max_key));
      } else {
        w->WriteU64(static_cast<std::uint64_t>(m.max_key));
      }
      w->WriteU32(m.next);
      w->WriteU16(m.size);
    }
    w->WriteBytes(node_keys_.data(),
                  static_cast<std::size_t>(used) * node_capacity_ *
                      sizeof(Key));
    w->WriteBytes(node_rows_.data(),
                  static_cast<std::size_t>(used) * node_capacity_ *
                      sizeof(std::uint32_t));
    out->AddSection("cgrxu.reps")->WritePodVector(rep_keys_);
    rep_scene_.SaveState(out->AddSection("cgrxu.scene"));
  }

  void LoadState(const storage::SnapshotReader& in) {
    util::ByteReader r = in.Section("cgrxu.nodes");
    const std::uint32_t capacity = r.ReadU32();
    if (capacity != node_capacity_) {
      // The slab stride is the configured node size; state written at a
      // different node_bytes cannot be mapped onto this instance.
      throw storage::CorruptionError(
          "cgrxu snapshot node capacity " + std::to_string(capacity) +
          " does not match configured capacity " +
          std::to_string(node_capacity_) +
          " (was the index saved with a different node_bytes?)");
    }
    num_data_buckets_ = r.ReadU32();
    const std::uint32_t used = r.ReadU32();
    const std::uint32_t allocated = r.ReadU32();
    total_size_ = static_cast<std::size_t>(r.ReadU64());
    meta_.assign(used, NodeMeta{});
    for (std::uint32_t node = 0; node < used; ++node) {
      NodeMeta& m = meta_[node];
      if constexpr (sizeof(Key) == 4) {
        m.max_key = static_cast<Key>(r.ReadU32());
      } else {
        m.max_key = static_cast<Key>(r.ReadU64());
      }
      m.next = r.ReadU32();
      m.size = r.ReadU16();
    }
    node_keys_.assign(static_cast<std::size_t>(used) * node_capacity_,
                      Key{});
    node_rows_.assign(static_cast<std::size_t>(used) * node_capacity_, 0);
    r.ReadBytes(node_keys_.data(), node_keys_.size() * sizeof(Key));
    r.ReadBytes(node_rows_.data(),
                node_rows_.size() * sizeof(std::uint32_t));
    allocated_nodes_ = used;
    next_free_.store(used, std::memory_order_relaxed);
    EnsureNodeCapacity(std::max(allocated, used));
    util::ByteReader reps = in.Section("cgrxu.reps");
    rep_keys_ = reps.ReadPodVector<Key>();
    util::ByteReader scene = in.Section("cgrxu.scene");
    rep_scene_.LoadState(&scene);
  }

 private:
  struct NodeMeta {
    Key max_key{};
    std::uint32_t next = kInvalidNode;
    std::uint16_t size = 0;
  };

  static void SortPairs(std::vector<Key>* keys,
                        std::vector<std::uint32_t>* rows) {
    util::RadixSortPairs(keys, rows, kKeyBits);
  }

  /// Shared lookup core of PointLookup/RangeLookup ([lo, hi] with
  /// lo == hi for points), counting into a caller-local accumulator:
  /// both stages back to back.
  LookupResult LookupCounted(Key lo, Key hi, int* rays_used,
                             LocalLookupCounters* counters) const {
    return Scan(lo, hi, Locate(lo, hi, counters, nullptr, rays_used));
  }

  /// Lookup stage 1: locates the bucket owning `lo` and prefetches its
  /// head node -- the meta_ entry, keys and rows the chain walk reads
  /// first. An empty range fires no rays and probes nothing.
  std::optional<std::uint32_t> Locate(Key lo, Key hi,
                                      LocalLookupCounters* counters,
                                      rt::TraversalContext* ctx,
                                      int* rays_used = nullptr) const {
    if (rays_used != nullptr) *rays_used = 0;
    if (lo > hi) return std::nullopt;
    int rays = 0;
    const auto bucket = LocateBucket(lo, &rays, ctx);
    counters->rays_fired += static_cast<std::uint64_t>(rays);
    if (rays_used != nullptr) *rays_used = rays;
    if (bucket.has_value()) {
      ++counters->buckets_probed;
      util::PrefetchRange(&meta_[*bucket], sizeof(NodeMeta));
      util::PrefetchRange(NodeKeys(*bucket), node_capacity_ * sizeof(Key));
      util::PrefetchRange(NodeRows(*bucket),
                          node_capacity_ * sizeof(std::uint32_t));
    }
    return bucket;
  }

  /// Lookup stage 2: the chain scan from the located bucket.
  LookupResult Scan(Key lo, Key hi,
                    std::optional<std::uint32_t> bucket) const {
    if (!bucket.has_value()) return LookupResult{};
    return ScanChain(*bucket, lo, hi);
  }

  /// Bucket that owns `key`: the raytraced bucket for keys within the
  /// representative range, the overflow bucket above it.
  std::optional<std::uint32_t> LocateBucket(
      Key key, int* rays_used, rt::TraversalContext* ctx = nullptr) const {
    if (rays_used != nullptr) *rays_used = 0;
    if (num_data_buckets_ == 0) return num_data_buckets_;  // Overflow only.
    if (static_cast<std::uint64_t>(key) > rep_scene_.max_rep()) {
      return num_data_buckets_;  // Overflow bucket.
    }
    return rep_scene_.Locate(static_cast<std::uint64_t>(key), rays_used, ctx);
  }

  /// One touched bucket of an update wave: its [lo, hi) slices of the
  /// sorted erase and insert sides.
  struct WaveSlice {
    std::uint32_t bucket;
    std::size_t del_lo, del_hi;
    std::size_t ins_lo, ins_hi;
  };

  /// First index at or after `from` whose element is not `before` (the
  /// predicate holds on a prefix of `sorted`), by doubling steps from
  /// `from` then a binary search: O(log d) for an answer d places on.
  template <typename Before>
  static std::size_t Gallop(const std::vector<Key>& sorted, std::size_t from,
                            Before before) {
    std::size_t lo = from;
    std::size_t hi = from;
    for (std::size_t step = 1; hi < sorted.size() && before(sorted[hi]);
         step *= 2) {
      lo = hi + 1;
      hi += step;
    }
    hi = std::min(hi, sorted.size());
    return static_cast<std::size_t>(
        std::partition_point(sorted.begin() + lo, sorted.begin() + hi,
                             before) -
        sorted.begin());
  }

  /// Splits a sorted wave into the buckets it lands in, ascending: the
  /// bucket owning the smaller head key (keys in (rep[b-1], rep[b]], the
  /// overflow bucket above the last rep) is galloped to from the last
  /// bucket found, then each side's cursor gallops to that bucket's
  /// slice end.
  std::vector<WaveSlice> SliceWave(const std::vector<Key>& insert_keys,
                                   const std::vector<Key>& delete_keys) const {
    std::vector<WaveSlice> slices;
    slices.reserve(std::min<std::size_t>(
        insert_keys.size() + delete_keys.size(), num_data_buckets_ + 1));
    std::size_t del = 0;
    std::size_t ins = 0;
    std::size_t bucket = 0;
    while (del < delete_keys.size() || ins < insert_keys.size()) {
      const Key head = del == delete_keys.size()   ? insert_keys[ins]
                       : ins == insert_keys.size() ? delete_keys[del]
                       : std::min(delete_keys[del], insert_keys[ins]);
      bucket = Gallop(rep_keys_, bucket,
                      [head](Key rep) { return rep < head; });
      WaveSlice slice{static_cast<std::uint32_t>(bucket), del,
                      delete_keys.size(), ins, insert_keys.size()};
      if (bucket < num_data_buckets_) {
        const auto within = [rep = rep_keys_[bucket]](Key key) {
          return key <= rep;
        };
        slice.del_hi = Gallop(delete_keys, del, within);
        slice.ins_hi = Gallop(insert_keys, ins, within);
      }
      slices.push_back(slice);
      del = slice.del_hi;
      ins = slice.ins_hi;
      ++bucket;
    }
    return slices;
  }

  Key* NodeKeys(std::uint32_t node) {
    return node_keys_.data() + static_cast<std::size_t>(node) * node_capacity_;
  }
  const Key* NodeKeys(std::uint32_t node) const {
    return node_keys_.data() + static_cast<std::size_t>(node) * node_capacity_;
  }
  std::uint32_t* NodeRows(std::uint32_t node) {
    return node_rows_.data() + static_cast<std::size_t>(node) * node_capacity_;
  }
  const std::uint32_t* NodeRows(std::uint32_t node) const {
    return node_rows_.data() + static_cast<std::size_t>(node) * node_capacity_;
  }

  void EnsureNodeCapacity(std::uint32_t nodes) {
    if (nodes <= allocated_nodes_) return;
    // Grow the slab ("once this region has been used entirely, we
    // enlarge it by allocating additional memory").
    const std::uint32_t grown =
        std::max(nodes, allocated_nodes_ + allocated_nodes_ / 2);
    node_keys_.resize(static_cast<std::size_t>(grown) * node_capacity_);
    node_rows_.resize(static_cast<std::size_t>(grown) * node_capacity_);
    meta_.resize(grown);
    allocated_nodes_ = grown;
  }

  std::uint32_t AllocNode() {
    const std::uint32_t node =
        next_free_.fetch_add(1, std::memory_order_relaxed);
    assert(node < allocated_nodes_);
    return node;
  }

  /// Deletes one instance of `key` from the chain at `*start` (a
  /// bucket's representative node, or a node at which an earlier,
  /// smaller key of the same wave slice stopped); returns whether an
  /// instance existed. `*start` advances to the first node with
  /// maxKey >= key: every node it skips has maxKey < key. maxKey fields
  /// are routing boundaries and stay untouched by deletion (a node may
  /// become empty but keeps routing).
  bool DeleteOne(std::uint32_t* start, Key key) {
    std::uint32_t node = *start;
    while (node != kInvalidNode && meta_[node].max_key < key) {
      node = meta_[node].next;
    }
    if (node == kInvalidNode) return false;
    *start = node;
    while (node != kInvalidNode) {
      Key* keys = NodeKeys(node);
      std::uint32_t* rows = NodeRows(node);
      NodeMeta& m = meta_[node];
      const std::uint16_t size = m.size;
      const Key* pos = std::lower_bound(keys, keys + size, key);
      const auto idx = static_cast<std::uint16_t>(pos - keys);
      if (idx < size && keys[idx] == key) {
        for (std::uint16_t i = idx; i + 1 < size; ++i) {
          keys[i] = keys[i + 1];
          rows[i] = rows[i + 1];
        }
        --m.size;
        return true;
      }
      // Duplicates sharing the routing boundary may continue in the
      // next node; anything else means the key is absent.
      if (m.max_key == key && m.next != kInvalidNode) {
        node = m.next;
        continue;
      }
      return false;
    }
    return false;
  }

  /// Inserts (key, row) into the chain at `start` (as for DeleteOne),
  /// splitting a full node (paper: the new node receives the old node's
  /// maxKey, the old node's largest remaining key becomes its new
  /// maxKey). Returns the node the key went into, where the walk of the
  /// slice's next key may start.
  std::uint32_t InsertOne(std::uint32_t start, Key key, std::uint32_t row) {
    std::uint32_t node = start;
    while (meta_[node].max_key < key) {
      assert(meta_[node].next != kInvalidNode);
      node = meta_[node].next;
    }
    if (meta_[node].size == node_capacity_) {
      const std::uint32_t fresh = AllocNode();
      NodeMeta& old_meta = meta_[node];
      NodeMeta& new_meta = meta_[fresh];
      const std::uint32_t half = node_capacity_ / 2;
      const std::uint32_t moved = node_capacity_ - half;
      Key* old_keys = NodeKeys(node);
      std::uint32_t* old_rows = NodeRows(node);
      Key* new_keys = NodeKeys(fresh);
      std::uint32_t* new_rows = NodeRows(fresh);
      for (std::uint32_t i = 0; i < moved; ++i) {
        new_keys[i] = old_keys[half + i];
        new_rows[i] = old_rows[half + i];
      }
      new_meta.size = static_cast<std::uint16_t>(moved);
      new_meta.max_key = old_meta.max_key;
      new_meta.next = old_meta.next;
      old_meta.size = static_cast<std::uint16_t>(half);
      old_meta.max_key = old_keys[half - 1];
      old_meta.next = fresh;
      if (key > old_meta.max_key) node = fresh;
    }
    NodeMeta& m = meta_[node];
    Key* keys = NodeKeys(node);
    std::uint32_t* rows = NodeRows(node);
    const Key* pos = std::lower_bound(keys, keys + m.size, key);
    const auto idx = static_cast<std::uint16_t>(pos - keys);
    for (std::uint16_t i = m.size; i > idx; --i) {
      keys[i] = keys[i - 1];
      rows[i] = rows[i - 1];
    }
    keys[idx] = key;
    rows[idx] = row;
    ++m.size;
    return node;
  }

  /// Aggregates all entries with keys in [lo, hi], starting at
  /// `bucket`'s chain and continuing into subsequent buckets (duplicates
  /// and ranges may span buckets).
  LookupResult ScanChain(std::uint32_t bucket, Key lo, Key hi) const {
    LookupResult result;
    for (std::uint32_t b = bucket; b <= num_data_buckets_; ++b) {
      std::uint32_t node = b;
      while (node != kInvalidNode) {
        const NodeMeta& m = meta_[node];
        if (m.max_key < lo) {  // Entire node below the range.
          node = m.next;
          continue;
        }
        const Key* keys = NodeKeys(node);
        const std::uint32_t* rows = NodeRows(node);
        const Key* pos = std::lower_bound(keys, keys + m.size, lo);
        for (auto i = static_cast<std::uint16_t>(pos - keys); i < m.size;
             ++i) {
          if (keys[i] > hi) return result;
          result.Accumulate(rows[i]);
        }
        node = m.next;
      }
      // The next bucket starts above rep_keys_[b]; stop once past hi.
      if (b < num_data_buckets_ && rep_keys_[b] >= hi) return result;
    }
    return result;
  }

  CgrxuConfig config_;
  util::KeyMapping mapping_;
  std::uint32_t node_capacity_ = 2;
  std::uint32_t num_data_buckets_ = 0;
  std::uint32_t allocated_nodes_ = 0;
  std::atomic<std::uint32_t> next_free_{0};
  std::size_t total_size_ = 0;
  std::vector<Key> node_keys_;
  std::vector<std::uint32_t> node_rows_;
  std::vector<NodeMeta> meta_;
  std::vector<Key> rep_keys_;  ///< Fixed bucket boundaries.
  RepScene rep_scene_;
  mutable LookupCounters counters_;
};

template <typename Key>
bool CgrxuIndex<Key>::ValidateInvariants(std::string* error) const {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  std::size_t seen = 0;
  std::vector<bool> visited(next_free_.load(std::memory_order_relaxed),
                            false);
  for (std::uint32_t b = 0; b <= num_data_buckets_; ++b) {
    const Key lower = b == 0 ? std::numeric_limits<Key>::min()
                             : rep_keys_[b - 1];
    const Key upper = b < num_data_buckets_ ? rep_keys_[b]
                                            : std::numeric_limits<Key>::max();
    std::uint32_t node = b;
    bool first_entry_of_bucket = true;
    Key prev{};
    Key prev_max{};
    bool have_prev_max = false;
    while (node != kInvalidNode) {
      if (node >= visited.size() || visited[node]) {
        return fail("node chain corrupt (cycle or out of range)");
      }
      visited[node] = true;
      const NodeMeta& m = meta_[node];
      if (m.size > node_capacity_) return fail("node overflow");
      if (have_prev_max && m.max_key < prev_max) {
        return fail("maxKey not monotone along chain");
      }
      const Key* keys = NodeKeys(node);
      for (std::uint16_t i = 0; i < m.size; ++i) {
        if (!first_entry_of_bucket && keys[i] < prev) {
          return fail("keys not sorted");
        }
        if (keys[i] > m.max_key) return fail("key above node maxKey");
        if (b > 0 && keys[i] <= lower) return fail("key below bucket range");
        if (keys[i] > upper) return fail("key above bucket range");
        prev = keys[i];
        first_entry_of_bucket = false;
        ++seen;
      }
      if (m.next == kInvalidNode && m.max_key != upper) {
        return fail("last node maxKey != bucket representative");
      }
      prev_max = m.max_key;
      have_prev_max = true;
      node = m.next;
    }
  }
  if (seen != total_size_) return fail("size accounting mismatch");
  return true;
}

using CgrxuIndex32 = CgrxuIndex<std::uint32_t>;
using CgrxuIndex64 = CgrxuIndex<std::uint64_t>;

}  // namespace cgrx::core

#endif  // CGRX_SRC_CORE_CGRXU_INDEX_H_
