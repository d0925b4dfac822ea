// Figure 18: updates. Bulk-load with 100% uniformity, fire eight
// insertion waves growing the entry count to ~2.2x, then eight deletion
// waves, each followed by a point-lookup batch. Reports (a) the time to
// apply each wave, (b) the update throughput per memory footprint and
// (c) the post-wave lookup time, for cgRX(32)/cgRX(256) [rebuild],
// cgRXu(1 cl), RX [rebuild], B+ and HT.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/harness.h"
#include "bench/indexes.h"
#include "src/util/rng.h"
#include "src/util/workloads.h"

namespace cgrx::bench {
namespace {

std::vector<BenchIndex> UpdateCompetitors() {
  std::vector<BenchIndex> competitors;
  competitors.push_back(MakeCgrx(32, 32));   // [rebuild]
  competitors.push_back(MakeCgrx(32, 256));  // [rebuild]
  competitors.push_back(MakeCgrxu(32, 128));
  competitors.push_back(MakeRx(32));  // [rebuild]
  competitors.push_back(MakeBPlus());
  competitors.push_back(MakeHt(32, /*load_factor=*/0.4));
  return competitors;
}

std::vector<std::string> CompetitorColumns(const std::string& head) {
  std::vector<std::string> columns = {head,
                                      "cgRX(32)[rebuild]",
                                      "cgRX(256)[rebuild]",
                                      "cgRXu(1 cl)",
                                      "RX[rebuild]",
                                      "B+",
                                      "HT"};
  return columns;
}

}  // namespace

void RegisterFigure() {
  benchmark::RegisterBenchmark("Fig18/waves", [](benchmark::State& state) {
    const auto& scale = Scale::Get();
    auto& apply_table = Table("Fig18a: time to apply update wave [ms]");
    auto& tpf_table =
        Table("Fig18b: update throughput / footprint [entries/(s*B)]");
    auto& lookup_table =
        Table("Fig18c: accumulated point-lookup time after wave [ms]");
    apply_table.SetColumns(CompetitorColumns("wave"));
    tpf_table.SetColumns(CompetitorColumns("wave"));
    lookup_table.SetColumns(CompetitorColumns("wave"));

    const std::size_t n = scale.Keys(26);
    util::KeySetConfig cfg;
    cfg.count = n;
    cfg.key_bits = 32;
    cfg.uniformity = 1.0;
    const auto keys = util::MakeKeySet(cfg);
    std::unordered_set<std::uint64_t> present(keys.begin(), keys.end());

    // Eight insert waves growing the set to 2.2x, i.e. 1.2 n extra keys.
    util::Rng rng(4242);
    std::vector<std::uint64_t> extra;
    while (extra.size() < n * 12 / 10) {
      const std::uint64_t k = rng.Below(0xffffffffULL);
      if (present.insert(k).second) extra.push_back(k);
    }
    const auto insert_waves = util::SplitIntoWaves(extra, 8);
    auto delete_waves = insert_waves;  // Delete what was inserted.
    std::reverse(delete_waves.begin(), delete_waves.end());

    auto competitors = UpdateCompetitors();
    for (auto _ : state) {
      for (BenchIndex& competitor : competitors) {
        competitor.index.Build(keys);
      }

      std::uint32_t next_row = static_cast<std::uint32_t>(n);
      auto run_wave = [&](const std::string& label,
                          const std::vector<std::uint64_t>& wave,
                          bool is_insert) {
        std::vector<std::string> apply_row = {label};
        std::vector<std::string> tpf_row = {label};
        std::vector<std::string> lookup_row = {label};
        std::vector<std::uint32_t> rows(wave.size());
        for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = next_row + i;
        for (BenchIndex& competitor : competitors) {
          const double apply_ms = MeasureMs([&] {
            if (is_insert) {
              competitor.index.InsertBatch(wave, rows);
            } else {
              competitor.index.EraseBatch(wave);
            }
          });
          apply_row.push_back(util::TablePrinter::Num(apply_ms, 1));
          tpf_row.push_back(util::TablePrinter::Num(
              ThroughputPerFootprint(wave.size(), apply_ms,
                                     competitor.index.Stats().memory_bytes),
              3));
          // Post-wave lookup batch over the current key population.
          util::LookupBatchConfig lcfg;
          lcfg.count = scale.PointBatch();
          lcfg.seed = next_row;
          auto sorted_now = keys;  // Hits drawn from the bulk keys.
          std::sort(sorted_now.begin(), sorted_now.end());
          const auto lookups =
              util::MakeLookupBatch(keys, sorted_now, 32, lcfg);
          std::vector<core::LookupResult> results;
          const double lookup_ms = MeasureMs(
              [&] { competitor.index.PointLookupBatch(lookups, &results); });
          lookup_row.push_back(util::TablePrinter::Num(lookup_ms, 1));
          benchmark::DoNotOptimize(results.data());
        }
        next_row += static_cast<std::uint32_t>(wave.size());
        apply_table.AddRow(apply_row);
        tpf_table.AddRow(tpf_row);
        lookup_table.AddRow(lookup_row);
      };

      for (std::size_t w = 0; w < insert_waves.size(); ++w) {
        run_wave(std::to_string(w + 1) + "-insert", insert_waves[w], true);
      }
      for (std::size_t w = 0; w < delete_waves.size(); ++w) {
        run_wave(std::to_string(w + 9) + "-delete", delete_waves[w], false);
      }
    }
  })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);

  // One-pass-vs-two-pass mode: the same combined insert+delete waves
  // applied to cgRXu through the wave API (one native pass over the
  // touched buckets) and through the decomposed InsertBatch+EraseBatch
  // path (two passes), with the buckets each visited read back from
  // IndexStats.
  benchmark::RegisterBenchmark("Fig18/combined-waves", [](benchmark::State&
                                                              state) {
    const auto& scale = Scale::Get();
    auto& table = Table(
        "Fig18d: combined wave, one pass vs two passes "
        "[apply ms | buckets visited]");
    table.SetColumns({"wave", "cgRXu one-pass [ms]", "cgRXu two-pass [ms]",
                      "speedup", "buckets visited 1x", "buckets visited 2x"});

    const std::size_t n = scale.Keys(26);
    util::KeySetConfig cfg;
    cfg.count = n;
    cfg.key_bits = 32;
    cfg.uniformity = 1.0;
    const auto keys = util::MakeKeySet(cfg);
    std::unordered_set<std::uint64_t> present(keys.begin(), keys.end());

    util::Rng rng(4242);
    std::vector<std::uint64_t> extra;
    while (extra.size() < n) {
      const std::uint64_t k = rng.Below(0xffffffffULL);
      if (present.insert(k).second) extra.push_back(k);
    }
    const auto waves = util::SplitIntoWaves(extra, 8);

    for (auto _ : state) {
      BenchIndex one_pass = MakeCgrxu(32, 128);
      BenchIndex two_pass = MakeCgrxu(32, 128);
      one_pass.index.Build(keys);
      two_pass.index.Build(keys);

      std::uint32_t next_row = static_cast<std::uint32_t>(n);
      for (std::size_t w = 0; w < waves.size(); ++w) {
        // Wave w inserts fresh keys and retires the previous wave's.
        const std::vector<std::uint64_t>& arrivals = waves[w];
        const std::vector<std::uint64_t> retirements =
            w == 0 ? std::vector<std::uint64_t>{} : waves[w - 1];
        std::vector<std::uint32_t> rows(arrivals.size());
        for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = next_row + i;
        next_row += static_cast<std::uint32_t>(arrivals.size());

        const api::IndexStats one_before = one_pass.index.Stats();
        const double one_ms = MeasureMs([&] {
          one_pass.index.UpdateBatch(arrivals, rows, retirements);
        });
        const std::uint64_t one_visits =
            one_pass.index.Stats().Delta(one_before).update_buckets_swept;

        const api::IndexStats two_before = two_pass.index.Stats();
        const double two_ms = MeasureMs([&] {
          two_pass.index.InsertBatch(arrivals, rows);
          two_pass.index.EraseBatch(retirements);
        });
        const std::uint64_t two_visits =
            two_pass.index.Stats().Delta(two_before).update_buckets_swept;

        table.AddRow({std::to_string(w + 1),
                      util::TablePrinter::Num(one_ms, 2),
                      util::TablePrinter::Num(two_ms, 2),
                      util::TablePrinter::Num(
                          one_ms > 0 ? two_ms / one_ms : 0.0, 2) + "x",
                      std::to_string(one_visits),
                      std::to_string(two_visits)});
      }
    }
  })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

}  // namespace cgrx::bench
