// Streaming ingest with interleaved analytics: an IoT-style scenario
// for cgRXu (paper Section IV). Sensor readings arrive in batches keyed
// by (sensor id | timestamp); old readings are retired in batches; point
// and range probes run between batches. Each batch is one combined
// UpdateBatch wave on the abstract interface -- arrivals and
// retirements applied in one pass that visits each touched bucket once
// on cgRXu (capabilities().combined_updates) -- contrasted against (a)
// the same cgRXu paying the two-pass InsertBatch+EraseBatch
// decomposition and (b) cgRX applying each batch as one merge into its
// sorted array plus one scene rebuild (the paper's cgRX [rebuild]), the
// comparison behind the paper's Figure 18. All three run through
// cgrx::api::Index.
//
//   ./streaming_updates
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "src/api/factory.h"
#include "src/api/index.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {

std::uint64_t ReadingKey(std::uint32_t sensor, std::uint32_t timestamp) {
  return (static_cast<std::uint64_t>(sensor) << 32) | timestamp;
}

}  // namespace

int main() {
  using cgrx::core::KeyRange;
  using cgrx::core::LookupResult;

  constexpr std::uint32_t kSensors = 512;
  constexpr std::uint32_t kInitialTicks = 512;
  constexpr int kBatches = 8;
  constexpr std::uint32_t kTicksPerBatch = 64;

  // Bulk load: every sensor has readings for ticks [0, kInitialTicks).
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(kSensors) * kInitialTicks);
  for (std::uint32_t s = 0; s < kSensors; ++s) {
    for (std::uint32_t t = 0; t < kInitialTicks; ++t) {
      keys.push_back(ReadingKey(s, t));
    }
  }

  // Combined waves vs. the same backend decomposed vs. rebuilt cgRX --
  // all held through the same abstract interface.
  const auto streaming = cgrx::api::MakeIndex<std::uint64_t>("cgrxu");
  const auto decomposed = cgrx::api::MakeIndex<std::uint64_t>("cgrxu");
  const auto rebuilding = cgrx::api::MakeIndex<std::uint64_t>("cgrx");
  streaming->Build(std::vector<std::uint64_t>(keys));
  decomposed->Build(std::vector<std::uint64_t>(keys));
  rebuilding->Build(std::vector<std::uint64_t>(keys));

  std::cout << "bulk-loaded " << streaming->size() << " readings from "
            << kSensors << " sensors\n"
            << "cgRXu combined_updates capability: "
            << (streaming->capabilities().combined_updates ? "yes" : "no")
            << "\n\n";
  std::cout << std::left << std::setw(8) << "batch" << std::setw(13)
            << "wave apply" << std::setw(13) << "2-pass" << std::setw(13)
            << "rebuild" << std::setw(24) << "buckets visited (1x/2x)"
            << "probe agreement\n";

  std::uint64_t total_wave_visits = 0;
  std::uint64_t total_split_visits = 0;
  std::uint32_t next_row = static_cast<std::uint32_t>(streaming->size());
  cgrx::util::Rng rng(2026);
  for (int batch = 0; batch < kBatches; ++batch) {
    // New readings: the next kTicksPerBatch ticks for every sensor.
    std::vector<std::uint64_t> arrivals;
    std::vector<std::uint32_t> rows;
    const std::uint32_t first_tick =
        kInitialTicks + static_cast<std::uint32_t>(batch) * kTicksPerBatch;
    for (std::uint32_t s = 0; s < kSensors; ++s) {
      for (std::uint32_t t = first_tick; t < first_tick + kTicksPerBatch;
           ++t) {
        arrivals.push_back(ReadingKey(s, t));
        rows.push_back(next_row++);
      }
    }
    // Retire the oldest kTicksPerBatch ticks of every sensor.
    std::vector<std::uint64_t> retirements;
    const std::uint32_t retire_tick =
        static_cast<std::uint32_t>(batch) * kTicksPerBatch;
    for (std::uint32_t s = 0; s < kSensors; ++s) {
      for (std::uint32_t t = retire_tick; t < retire_tick + kTicksPerBatch;
           ++t) {
        retirements.push_back(ReadingKey(s, t));
      }
    }

    // One combined wave: arrivals + retirements in one pass.
    const cgrx::api::IndexStats wave_before = streaming->Stats();
    cgrx::util::Timer t1;
    streaming->UpdateBatch(arrivals, rows, retirements);
    const double streaming_ms = t1.ElapsedMs();
    const std::uint64_t wave_visits =
        streaming->Stats().Delta(wave_before).update_buckets_swept;

    // The decomposed path on the identical backend: two passes.
    const cgrx::api::IndexStats split_before = decomposed->Stats();
    cgrx::util::Timer t2;
    decomposed->InsertBatch(arrivals, rows);
    decomposed->EraseBatch(retirements);
    const double split_ms = t2.ElapsedMs();
    const std::uint64_t split_visits =
        decomposed->Stats().Delta(split_before).update_buckets_swept;
    total_wave_visits += wave_visits;
    total_split_visits += split_visits;

    cgrx::util::Timer t3;
    rebuilding->UpdateBatch(arrivals, rows, retirements);
    const double rebuild_ms = t3.ElapsedMs();

    // Interleaved analytics: probe random live readings and one sensor's
    // full retained window; all three indexes must agree.
    std::vector<std::uint64_t> probes;
    for (int q = 0; q < 2000; ++q) {
      const auto sensor = static_cast<std::uint32_t>(rng.Below(kSensors));
      const auto tick = static_cast<std::uint32_t>(
          rng.Below(first_tick + kTicksPerBatch));
      probes.push_back(ReadingKey(sensor, tick));
    }
    std::vector<LookupResult> streaming_hits;
    std::vector<LookupResult> split_hits;
    std::vector<LookupResult> rebuilding_hits;
    streaming->PointLookupBatch(probes, &streaming_hits);
    decomposed->PointLookupBatch(probes, &split_hits);
    rebuilding->PointLookupBatch(probes, &rebuilding_hits);
    bool agree =
        streaming_hits == rebuilding_hits && streaming_hits == split_hits;

    const std::vector<KeyRange<std::uint64_t>> window = {
        {ReadingKey(7, 0), ReadingKey(7, ~0u)}};
    std::vector<LookupResult> streaming_window;
    std::vector<LookupResult> rebuilding_window;
    streaming->RangeLookupBatch(window, &streaming_window);
    rebuilding->RangeLookupBatch(window, &rebuilding_window);
    agree = agree && streaming_window == rebuilding_window;

    std::cout << std::left << std::setw(8) << (batch + 1) << std::setw(13)
              << (std::to_string(streaming_ms) + " ms").substr(0, 9)
              << std::setw(13)
              << (std::to_string(split_ms) + " ms").substr(0, 9)
              << std::setw(13)
              << (std::to_string(rebuild_ms) + " ms").substr(0, 9)
              << std::setw(24)
              << (std::to_string(wave_visits) + "/" +
                  std::to_string(split_visits))
              << (agree ? "ok" : "MISMATCH") << "\n";
    if (!agree) return 1;
  }
  std::cout << "\nretained " << streaming->size()
            << " readings; node slab footprint "
            << streaming->Stats().memory_bytes / 1024 << " KiB\n"
            << "buckets visited: " << total_wave_visits
            << " (combined waves) vs " << total_split_visits
            << " (insert+erase) -- "
            << (total_split_visits - total_wave_visits)
            << " bucket visits saved by the combined wave API\n";
  return 0;
}
