// Runtime-layer ablation: multi-cell slot throughput scaling.
//
// BM_MultiCellSlots stands up an rt::GnbDeployment with N cells (one
// CellExecutor worker thread per cell, shared near-RT RIC) on virtual time
// and drives it free-running (run_slots_unsynced — no per-slot barrier), so
// the measurement is pure slot-processing throughput: every cell's MAC +
// three Wasm MVNO schedulers + E2 agent, with no wall-clock pacing.
//
// items_per_second counts MAC slots across all cells, so on a machine with
// >= N cores an N-cell run should approach N x the 1-cell rate. main()
// derives `abl_rt.BM_MultiCellSlots.scale_<N>x` ratio keys from the runs
// and merges everything into BENCH_interp.json. The scale ratios are
// reported, not gated — CI runner core counts vary — while the 1-cell
// throughput key is gated conservatively by scripts/check_bench.py.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "rt/deployment.h"

namespace {

using namespace waran;

constexpr uint32_t kSlotsPerIter = 16;

void BM_MultiCellSlots(benchmark::State& state) {
  const uint32_t cells = static_cast<uint32_t>(state.range(0));
  rt::DeploymentConfig cfg;
  cfg.cells = cells;
  cfg.seed = 42;
  cfg.threaded = true;
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  rt::GnbDeployment dep(cfg);
  if (!dep.status().ok()) {
    state.SkipWithError(dep.status().error().message.c_str());
    return;
  }
  for (auto _ : state) {
    auto st = dep.run_slots_unsynced(kSlotsPerIter);
    if (!st.ok()) {
      state.SkipWithError(st.error().message.c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSlotsPerIter) * cells);
  state.counters["cells"] = static_cast<double>(cells);
}

BENCHMARK(BM_MultiCellSlots)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("cells")
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// UE-count stress sweep: how slot cost scales with per-slice UE population
// and with slice count (each slice is one Wasm scheduler call per slot, so
// slices/cell scales dispatch count while UEs/slice scales per-call work).
// Keys land in BENCH_interp.json as abl_rt.BM_UeStress.* — reported for
// trend tracking, not gated (absolute cost varies with CI hardware).
void BM_UeStress(benchmark::State& state) {
  const uint32_t ues_per_slice = static_cast<uint32_t>(state.range(0));
  const uint32_t slices = static_cast<uint32_t>(state.range(1));
  static const char* kPolicies[] = {"rr", "mt", "pf"};

  rt::DeploymentConfig cfg;
  cfg.cells = 1;
  cfg.seed = 42;
  cfg.threaded = false;  // single cell: measure the slot path, not the pool
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  cfg.slices.clear();
  for (uint32_t s = 0; s < slices; ++s) {
    rt::SliceSpec spec;
    spec.slice_id = s + 1;
    spec.name = "mvno" + std::to_string(s + 1);
    spec.policy = kPolicies[s % 3];
    spec.target_rate_bps = 8e6;
    spec.quota_prbs = 8;
    spec.ues = ues_per_slice;
    cfg.slices.push_back(spec);
  }
  rt::GnbDeployment dep(cfg);
  if (!dep.status().ok()) {
    state.SkipWithError(dep.status().error().message.c_str());
    return;
  }
  for (auto _ : state) {
    auto st = dep.run_slots_unsynced(kSlotsPerIter);
    if (!st.ok()) {
      state.SkipWithError(st.error().message.c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSlotsPerIter));
  state.counters["ues"] = static_cast<double>(ues_per_slice * slices);
  state.counters["slices"] = static_cast<double>(slices);
}

BENCHMARK(BM_UeStress)
    ->Args({2, 3})
    ->Args({8, 3})
    ->Args({32, 3})
    ->Args({8, 6})
    ->ArgNames({"ues_per_slice", "slices"});

/// Same console + JSON capture shape as the other ablations (see
/// abl_engine.cpp): every run lands in BENCH_interp.json as
/// `abl_rt.<name>.<counter>`.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string base = "abl_rt." + run.benchmark_name();
      entries[base + ".ns_per_op"] = run.GetAdjustedRealTime();
      for (const auto& [name, counter] : run.counters) {
        entries[base + "." + name] = static_cast<double>(counter.value);
      }
    }
  }
  std::map<std::string, double> entries;
};

/// slots/sec for the N-cell run, or 0 if that run is missing. With
/// --benchmark_repetitions the `_median` aggregate is the rate (the plain
/// key holds only the last repetition); `_mean`/`_stddev`/`_cv` never are.
double cells_ips(const std::map<std::string, double>& entries, uint32_t n) {
  const std::string tag = "cells:" + std::to_string(n) + "/";
  const std::string field = ".items_per_second";
  double plain = 0.0;
  for (const auto& [key, value] : entries) {
    if (key.find(tag) == std::string::npos || !key.ends_with(field)) continue;
    const std::string run = key.substr(0, key.size() - field.size());
    if (run.ends_with("_median")) return value;
    if (!run.ends_with("_mean") && !run.ends_with("_stddev") && !run.ends_with("_cv")) {
      plain = value;
    }
  }
  return plain;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Scaling summary: N-cell aggregate slot rate over the 1-cell rate. On a
  // single-core machine these hover near 1.0; with >= N cores they should
  // approach N (the acceptance target is >= 3x at 4 cells on 4+ cores).
  const double base_ips = cells_ips(reporter.entries, 1);
  if (base_ips > 0.0) {
    for (uint32_t n : {2u, 4u, 8u}) {
      const double ips = cells_ips(reporter.entries, n);
      if (ips <= 0.0) continue;
      const double ratio = ips / base_ips;
      reporter.entries["abl_rt.BM_MultiCellSlots.scale_" + std::to_string(n) +
                       "x"] = ratio;
      std::printf("scale %ux: %.0f slots/s vs %.0f slots/s at 1 cell "
                  "(%.2fx)\n",
                  n, ips, base_ips, ratio);
    }
  }

  waran::bench::bench_json_merge(reporter.entries);
  return 0;
}
