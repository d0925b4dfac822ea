#include "src/rt/bvh.h"

#include <algorithm>
#include <array>
#include <mutex>

#include "src/util/task_scheduler.h"

namespace cgrx::rt {
namespace {

constexpr int kNumBins = 16;
// Below this depth the builder forces median cuts, bounding recursion on
// adversarial inputs without affecting realistic scenes.
constexpr int kMaxDepth = 48;

// Ranges at least this large use parallel reductions, histograms and
// partitions inside a single split (the top SAH splits are the O(n)
// serial bottleneck of a naive parallel build).
constexpr std::uint32_t kParallelRangeMin = 1 << 16;

// Work items at most this large (scaled by total size, see
// FragmentCutoff) are deferred to the parallel-subtree frontier. The
// cutoff depends only on the input size, never on the thread count, so
// the node layout is identical for every scheduler width.
constexpr std::uint32_t kFragmentMin = 1 << 13;

std::uint32_t FragmentCutoff(std::size_t total_prims) {
  return std::max<std::uint32_t>(kFragmentMin,
                                 static_cast<std::uint32_t>(total_prims / 64));
}

bool UseParallel(std::size_t range) {
  return range >= kParallelRangeMin &&
         cgrx::util::TaskScheduler::Global().num_threads() > 1 &&
         !cgrx::util::TaskScheduler::SerialForced();
}

int LargestAxis(const Vec3f& extent) {
  if (extent.x >= extent.y && extent.x >= extent.z) return 0;
  return extent.y >= extent.z ? 1 : 2;
}

}  // namespace

void Bvh::Build(const TriangleSoup& soup) {
  nodes_.clear();
  prim_indices_.clear();
  refit_levels_.clear();
  refit_level_start_.clear();
  std::vector<BuildPrim> prims;
  prims.reserve(soup.size());
  for (std::uint32_t i = 0; i < soup.size(); ++i) {
    if (!soup.IsActive(i)) continue;
    BuildPrim p;
    p.bounds = soup.BoundsOf(i);
    p.centroid = p.bounds.Center();
    p.index = i;
    prims.push_back(p);
  }
  if (prims.empty()) return;
  util::TaskScheduler& scheduler = util::TaskScheduler::Global();
  // Top phase: split large ranges (with parallel reductions inside the
  // split), deferring small subtrees to the frontier.
  nodes_.reserve(prims.size() * 2);
  nodes_.emplace_back();
  std::vector<BuildWork> frontier;
  BuildRanges(&prims, {{0, 0, static_cast<std::uint32_t>(prims.size()), 0}},
              &nodes_, &frontier, FragmentCutoff(prims.size()));

  // Fragment phase: every frontier subtree builds concurrently into a
  // local node vector (its prim range is a private slice of the shared
  // array, so in-place partitioning never races), then splices into
  // the main array at offsets fixed by frontier order.
  if (!frontier.empty()) {
    std::vector<std::vector<Node>> fragments(frontier.size());
    scheduler.ParallelFor(
        0, frontier.size(), 1, [&](std::size_t fb, std::size_t fe) {
          for (std::size_t f = fb; f < fe; ++f) {
            const BuildWork& w = frontier[f];
            fragments[f].reserve(
                static_cast<std::size_t>(w.end - w.begin) * 2);
            fragments[f].emplace_back();
            BuildRanges(&prims, {{0, w.begin, w.end, w.depth}}, &fragments[f],
                        nullptr, 0);
          }
        });
    std::vector<std::uint32_t> offsets(frontier.size());
    std::uint32_t base = static_cast<std::uint32_t>(nodes_.size());
    for (std::size_t f = 0; f < frontier.size(); ++f) {
      offsets[f] = base;
      base += static_cast<std::uint32_t>(fragments[f].size()) - 1;
    }
    nodes_.resize(base);
    scheduler.ParallelFor(
        0, frontier.size(), 1, [&](std::size_t fb, std::size_t fe) {
          for (std::size_t f = fb; f < fe; ++f) {
            // Local index 0 is the pre-allocated slot; the rest land at
            // the fragment's offset, shifted by one. Children stay
            // consecutive (local L, L+1 -> global off+L-1, off+L) and
            // keep indices above their parent, preserving the Refit
            // sweep order.
            const std::uint32_t slot = frontier[f].node;
            const std::uint32_t off = offsets[f];
            const std::vector<Node>& local = fragments[f];
            for (std::size_t j = 0; j < local.size(); ++j) {
              Node node = local[j];
              if (!node.IsLeaf()) {
                node.left_or_first = off + node.left_or_first - 1;
              }
              nodes_[j == 0 ? slot : off + static_cast<std::uint32_t>(j) - 1] =
                  node;
            }
          }
        });
  }

  // Leaves reference prims by global array position, so the packed
  // primitive index array is just the final (partitioned) prim order.
  prim_indices_.resize(prims.size());
  scheduler.ParallelFor(0, prims.size(),
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            prim_indices_[i] = prims[i].index;
                          }
                        });
}

void Bvh::BuildRanges(std::vector<BuildPrim>* prims,
                      std::vector<BuildWork> stack, std::vector<Node>* nodes,
                      std::vector<BuildWork>* frontier,
                      std::uint32_t fragment_cutoff) {
  util::TaskScheduler& scheduler = util::TaskScheduler::Global();
  while (!stack.empty()) {
    const BuildWork w = stack.back();
    stack.pop_back();
    if (frontier != nullptr && w.end - w.begin <= fragment_cutoff) {
      frontier->push_back(w);
      continue;
    }
    Aabb bounds;
    if (UseParallel(w.end - w.begin)) {
      std::mutex merge_mutex;
      scheduler.ParallelFor(
          w.begin, w.end, [&](std::size_t begin, std::size_t end) {
            Aabb local;
            for (std::size_t i = begin; i < end; ++i) {
              local.Grow((*prims)[i].bounds);
            }
            // Min/max merging is exact and order-independent, so the
            // reduction is deterministic under any chunking.
            const std::lock_guard<std::mutex> lock(merge_mutex);
            bounds.Grow(local);
          });
    } else {
      for (std::uint32_t i = w.begin; i < w.end; ++i) {
        bounds.Grow((*prims)[i].bounds);
      }
    }
    (*nodes)[w.node].bounds = bounds;
    const std::uint32_t count = w.end - w.begin;
    if (count <= kMaxLeafSize) {
      (*nodes)[w.node].prim_count = static_cast<std::uint16_t>(count);
      (*nodes)[w.node].left_or_first = w.begin;
      continue;
    }
    int axis = 0;
    std::uint32_t mid = w.depth >= kMaxDepth
                            ? (w.begin + w.end) / 2
                            : Partition(prims, w.begin, w.end, &axis);
    if (mid <= w.begin || mid >= w.end) mid = (w.begin + w.end) / 2;
    const auto left = static_cast<std::uint32_t>(nodes->size());
    nodes->emplace_back();
    nodes->emplace_back();
    (*nodes)[w.node].left_or_first = left;
    (*nodes)[w.node].prim_count = 0;
    (*nodes)[w.node].axis = static_cast<std::uint16_t>(axis);
    stack.push_back({left + 1, mid, w.end, w.depth + 1});
    stack.push_back({left, w.begin, mid, w.depth + 1});
  }
}

std::uint32_t Bvh::Partition(std::vector<BuildPrim>* prims,
                             std::uint32_t begin, std::uint32_t end,
                             int* axis) {
  auto first = prims->begin() + begin;
  auto last = prims->begin() + end;
  util::TaskScheduler& scheduler = util::TaskScheduler::Global();
  const bool parallel = UseParallel(end - begin);
  Aabb centroid_bounds;
  if (parallel) {
    std::mutex merge_mutex;
    scheduler.ParallelFor(begin, end, [&](std::size_t b, std::size_t e) {
      Aabb local;
      for (std::size_t i = b; i < e; ++i) local.Grow((*prims)[i].centroid);
      const std::lock_guard<std::mutex> lock(merge_mutex);
      centroid_bounds.Grow(local);
    });
  } else {
    for (std::uint32_t i = begin; i < end; ++i) {
      centroid_bounds.Grow((*prims)[i].centroid);
    }
  }
  const Vec3f extent = centroid_bounds.Extent();
  *axis = LargestAxis(extent);
  const float axis_extent = extent[*axis];
  if (axis_extent <= 0) return (begin + end) / 2;  // All centroids equal.
  const float axis_min = centroid_bounds.min[*axis];

  // Binned SAH. The bin histogram is a parallel chunk-local
  // count/bounds accumulation merged once per chunk; sums and exact
  // min/max merges are order-independent, so the chosen split is
  // deterministic.
  const float scale = static_cast<float>(kNumBins) / axis_extent;
  auto bin_of = [&](const BuildPrim& p) {
    const int b = static_cast<int>((p.centroid[*axis] - axis_min) * scale);
    return std::min(b, kNumBins - 1);
  };
  std::array<std::uint32_t, kNumBins> bin_count{};
  std::array<Aabb, kNumBins> bin_bounds;
  if (parallel) {
    std::mutex merge_mutex;
    scheduler.ParallelFor(begin, end, [&](std::size_t b, std::size_t e) {
      std::array<std::uint32_t, kNumBins> local_count{};
      std::array<Aabb, kNumBins> local_bounds;
      for (std::size_t i = b; i < e; ++i) {
        const int bin = bin_of((*prims)[i]);
        local_count[static_cast<std::size_t>(bin)]++;
        local_bounds[static_cast<std::size_t>(bin)].Grow((*prims)[i].bounds);
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      for (int bin = 0; bin < kNumBins; ++bin) {
        bin_count[static_cast<std::size_t>(bin)] +=
            local_count[static_cast<std::size_t>(bin)];
        bin_bounds[static_cast<std::size_t>(bin)].Grow(
            local_bounds[static_cast<std::size_t>(bin)]);
      }
    });
  } else {
    for (std::uint32_t i = begin; i < end; ++i) {
      const int b = bin_of((*prims)[i]);
      bin_count[static_cast<std::size_t>(b)]++;
      bin_bounds[static_cast<std::size_t>(b)].Grow((*prims)[i].bounds);
    }
  }
  // Sweep from the right to precompute suffix areas/counts.
  std::array<float, kNumBins> right_area{};
  std::array<std::uint32_t, kNumBins> right_count{};
  {
    Aabb acc;
    std::uint32_t cnt = 0;
    for (int b = kNumBins - 1; b > 0; --b) {
      acc.Grow(bin_bounds[static_cast<std::size_t>(b)]);
      cnt += bin_count[static_cast<std::size_t>(b)];
      right_area[static_cast<std::size_t>(b)] = acc.SurfaceArea();
      right_count[static_cast<std::size_t>(b)] = cnt;
    }
  }
  float best_cost = std::numeric_limits<float>::infinity();
  int best_split = -1;  // Split between bins best_split and best_split+1.
  {
    Aabb acc;
    std::uint32_t cnt = 0;
    for (int b = 0; b < kNumBins - 1; ++b) {
      acc.Grow(bin_bounds[static_cast<std::size_t>(b)]);
      cnt += bin_count[static_cast<std::size_t>(b)];
      const std::uint32_t rcnt = right_count[static_cast<std::size_t>(b + 1)];
      if (cnt == 0 || rcnt == 0) continue;
      const float cost = acc.SurfaceArea() * static_cast<float>(cnt) +
                         right_area[static_cast<std::size_t>(b + 1)] *
                             static_cast<float>(rcnt);
      if (cost < best_cost) {
        best_cost = cost;
        best_split = b;
      }
    }
  }
  if (best_split < 0) return (begin + end) / 2;
  // The partition algorithm is chosen by range size ALONE, never by
  // thread count: the surviving intra-side order feeds positional
  // downstream cuts (median fallbacks), so every execution width must
  // partition a given range identically for builds to stay
  // byte-identical. Small ranges always take
  // std::partition; large ranges always take the chunked stable
  // partition below, whose stable output is chunk-count-independent
  // (and which simply runs inline on a serial scheduler).
  if (end - begin < kParallelRangeMin) {
    auto mid_it = std::partition(first, last, [&](const BuildPrim& p) {
      return bin_of(p) <= best_split;
    });
    return static_cast<std::uint32_t>(mid_it - prims->begin());
  }
  // Chunked stable partition: per-chunk left/right counts, exclusive
  // offsets (left block first, chunks in order), scatter into a
  // temporary, copy back. Stability makes the output independent of
  // the chunk decomposition -- the same property the parallel radix
  // sort leans on.
  const std::size_t n = end - begin;
  const std::size_t chunk_count = std::min<std::size_t>(
      static_cast<std::size_t>(scheduler.num_threads()) * 4,
      (n + kParallelRangeMin - 1) / kParallelRangeMin * 4);
  const std::size_t chunk_size = (n + chunk_count - 1) / chunk_count;
  std::vector<std::size_t> left_counts(chunk_count, 0);
  scheduler.ParallelFor(0, chunk_count, 1, [&](std::size_t cb,
                                               std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t b = begin + c * chunk_size;
      const std::size_t e = std::min<std::size_t>(end, b + chunk_size);
      std::size_t lefts = 0;
      for (std::size_t i = b; i < e; ++i) {
        lefts += bin_of((*prims)[i]) <= best_split ? 1 : 0;
      }
      left_counts[c] = lefts;
    }
  });
  std::size_t total_left = 0;
  for (const std::size_t c : left_counts) total_left += c;
  std::vector<BuildPrim> scratch(n);
  std::vector<std::size_t> left_off(chunk_count);
  std::vector<std::size_t> right_off(chunk_count);
  {
    std::size_t left_sum = 0;
    std::size_t right_sum = total_left;
    for (std::size_t c = 0; c < chunk_count; ++c) {
      left_off[c] = left_sum;
      right_off[c] = right_sum;
      const std::size_t b = begin + c * chunk_size;
      const std::size_t e = std::min<std::size_t>(end, b + chunk_size);
      const std::size_t chunk_n = e > b ? e - b : 0;
      left_sum += left_counts[c];
      right_sum += chunk_n - left_counts[c];
    }
  }
  scheduler.ParallelFor(0, chunk_count, 1, [&](std::size_t cb,
                                               std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t b = begin + c * chunk_size;
      const std::size_t e = std::min<std::size_t>(end, b + chunk_size);
      std::size_t lo = left_off[c];
      std::size_t hi = right_off[c];
      for (std::size_t i = b; i < e; ++i) {
        if (bin_of((*prims)[i]) <= best_split) {
          scratch[lo++] = (*prims)[i];
        } else {
          scratch[hi++] = (*prims)[i];
        }
      }
    }
  });
  scheduler.ParallelFor(0, n, [&](std::size_t b, std::size_t e) {
    std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(b),
              scratch.begin() + static_cast<std::ptrdiff_t>(e),
              prims->begin() + static_cast<std::ptrdiff_t>(begin + b));
  });
  return begin + static_cast<std::uint32_t>(total_left);
}

void Bvh::Refit(const TriangleSoup& soup) {
  // One node's refit reads only its children (internal) or its prims
  // (leaf), so the only ordering constraint is children-before-parent.
  // The serial path satisfies it with a reverse sweep over the
  // parent-before-children array; the parallel path satisfies it by
  // levels: every node of depth d+1 finishes before any node of depth
  // d starts, and nodes within a level are independent.
  auto refit_node = [&](std::size_t i) {
    Node& node = nodes_[i];
    Aabb bounds;
    if (node.IsLeaf()) {
      for (std::uint32_t p = 0; p < node.prim_count; ++p) {
        const std::uint32_t prim = prim_indices_[node.left_or_first + p];
        if (soup.IsActive(prim)) bounds.Grow(soup.BoundsOf(prim));
      }
    } else {
      bounds.Grow(nodes_[node.left_or_first].bounds);
      bounds.Grow(nodes_[node.left_or_first + 1].bounds);
    }
    node.bounds = bounds;
  };
  if (!UseParallel(nodes_.size())) {
    for (std::size_t i = nodes_.size(); i-- > 0;) refit_node(i);
    return;
  }
  if (refit_levels_.size() != nodes_.size()) {
    // Derive the level buckets once per topology (Build/LoadState
    // clear them): depth of every node via one forward pass (children
    // always follow their parent in the array), then a counting-sort
    // bucketing into per-level index runs. Subsequent refits -- the
    // per-wave RX pattern -- reuse the buckets.
    std::vector<std::uint16_t> depth(nodes_.size(), 0);
    std::uint16_t max_depth = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].IsLeaf()) continue;
      const auto d = static_cast<std::uint16_t>(depth[i] + 1);
      depth[nodes_[i].left_or_first] = d;
      depth[nodes_[i].left_or_first + 1] = d;
      if (d > max_depth) max_depth = d;
    }
    refit_level_start_.assign(static_cast<std::size_t>(max_depth) + 2, 0);
    for (const std::uint16_t d : depth) ++refit_level_start_[d + 1u];
    for (std::size_t d = 1; d < refit_level_start_.size(); ++d) {
      refit_level_start_[d] += refit_level_start_[d - 1];
    }
    refit_levels_.resize(nodes_.size());
    std::vector<std::uint32_t> cursor(refit_level_start_.begin(),
                                      refit_level_start_.end() - 1);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      refit_levels_[cursor[depth[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  util::TaskScheduler& scheduler = util::TaskScheduler::Global();
  for (std::size_t d = refit_level_start_.size() - 1; d-- > 0;) {
    scheduler.ParallelFor(refit_level_start_[d], refit_level_start_[d + 1],
                          [&](std::size_t begin, std::size_t end) {
                            for (std::size_t i = begin; i < end; ++i) {
                              refit_node(refit_levels_[i]);
                            }
                          });
  }
}

void Bvh::SaveState(util::ByteWriter* out) const {
  static_assert(sizeof(Node) == 32, "Bvh::Node layout is part of the "
                                    "snapshot format");
  out->WritePodVector(nodes_);
  out->WritePodVector(prim_indices_);
}

void Bvh::LoadState(util::ByteReader* in) {
  nodes_ = in->ReadPodVector<Node>();
  prim_indices_ = in->ReadPodVector<std::uint32_t>();
  refit_levels_.clear();
  refit_level_start_.clear();
}

int Bvh::Depth() const {
  if (nodes_.empty()) return 0;
  // Depth-first walk with explicit (node, depth) stack.
  int max_depth = 1;
  std::vector<std::pair<std::uint32_t, int>> stack{{0, 1}};
  while (!stack.empty()) {
    const auto [n, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (!nodes_[n].IsLeaf()) {
      stack.push_back({nodes_[n].left_or_first, d + 1});
      stack.push_back({nodes_[n].left_or_first + 1, d + 1});
    }
  }
  return max_depth;
}

}  // namespace cgrx::rt
