// Ablation — interpreter micro-costs: raw arithmetic throughput, memory
// streaming, wasm->wasm calls, call_indirect dispatch, and host-call
// round-trips. These bound what any WA-RAN plugin can do inside the slot
// budget and quantify where an AoT backend (§6C future work) would help.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "common/tracked_alloc.h"
#include "plugin/plugin.h"
#include "tests/heap_probe_guard.h"
#include "wasm/wasm.h"
#include "wasmbuilder/builder.h"
#include "wcc/compiler.h"

namespace {

using namespace waran;
using bench::instantiate_w;
using wasm::TypedValue;

void BM_ArithmeticLoop(benchmark::State& state) {
  auto inst = instantiate_w(R"(
    export fn work(n: i32) -> i32 {
      var acc: i32 = 0;
      var i: i32 = 0;
      while (i < n) { acc = acc + i * 7 - i / 3; i = i + 1; }
      return acc;
    }
  )");
  int64_t n = state.range(0);
  std::vector<TypedValue> args = {TypedValue::i32(static_cast<int32_t>(n))};
  for (auto _ : state) {
    auto r = inst->call("work", args);
    benchmark::DoNotOptimize(r);
  }
  // ~6 wasm instructions per iteration.
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_F64Loop(benchmark::State& state) {
  auto inst = instantiate_w(R"(
    export fn work(n: i32) -> f64 {
      var acc: f64 = 0.0;
      var i: i32 = 0;
      while (i < n) { acc = acc + sqrt(f64(i)) * 0.5; i = i + 1; }
      return acc;
    }
  )");
  int64_t n = state.range(0);
  std::vector<TypedValue> args = {TypedValue::i32(static_cast<int32_t>(n))};
  for (auto _ : state) {
    auto r = inst->call("work", args);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_MemoryStream(benchmark::State& state) {
  auto inst = instantiate_w(R"(
    export fn work(n: i32) -> i32 {
      var i: i32 = 0;
      var acc: i32 = 0;
      while (i < n) { store32(i * 4, i); acc = acc + load32(i * 4); i = i + 1; }
      return acc;
    }
  )");
  int64_t n = state.range(0);
  std::vector<TypedValue> args = {TypedValue::i32(static_cast<int32_t>(n))};
  for (auto _ : state) {
    auto r = inst->call("work", args);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * n * 8);
}

void BM_WasmToWasmCall(benchmark::State& state) {
  auto inst = instantiate_w(R"(
    fn leaf(x: i32) -> i32 { return x + 1; }
    export fn work(n: i32) -> i32 {
      var acc: i32 = 0;
      var i: i32 = 0;
      while (i < n) { acc = leaf(acc); i = i + 1; }
      return acc;
    }
  )");
  std::vector<TypedValue> args = {TypedValue::i32(10000)};
  for (auto _ : state) {
    auto r = inst->call("work", args);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}

void BM_HostCallRoundTrip(benchmark::State& state) {
  wasm::Linker linker;
  linker.register_func(
      "env", "bump",
      wasm::HostFunc{wasm::FuncType{{wasm::ValType::kI32}, {wasm::ValType::kI32}},
                     [](wasm::HostContext&, std::span<const wasm::Value> a)
                         -> Result<std::optional<wasm::Value>> {
                       return std::optional<wasm::Value>(
                           wasm::Value::from_i32(a[0].as_i32() + 1));
                     }});
  auto inst = instantiate_w(R"(
    extern fn bump(x: i32) -> i32;
    export fn work(n: i32) -> i32 {
      var acc: i32 = 0;
      var i: i32 = 0;
      while (i < n) { acc = bump(acc); i = i + 1; }
      return acc;
    }
  )",
                            linker);
  std::vector<TypedValue> args = {TypedValue::i32(10000)};
  for (auto _ : state) {
    auto r = inst->call("work", args);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}

void BM_CallIndirect(benchmark::State& state) {
  using wasmbuilder::ModuleBuilder;
  using wasm::FuncType;
  using wasm::Op;
  using wasm::ValType;
  ModuleBuilder mb;
  FuncType unop{{ValType::kI32}, {ValType::kI32}};
  auto& inc = mb.add_func(unop);
  inc.local_get(0).i32_const(1).op(Op::kI32Add).end();
  mb.add_table(1, 1);
  mb.add_elem(0, {inc.index()});
  uint32_t t = mb.add_type(unop);
  auto& work = mb.add_func(FuncType{{ValType::kI32}, {ValType::kI32}}, "work");
  uint32_t acc = work.add_local(ValType::kI32);
  uint32_t i = work.add_local(ValType::kI32);
  work.block().loop();
  work.local_get(i).local_get(0).op(Op::kI32GeS).br_if(1);
  work.local_get(acc).i32_const(0).call_indirect(t).local_set(acc);
  work.local_get(i).i32_const(1).op(Op::kI32Add).local_set(i);
  work.br(0).end().end();
  work.local_get(acc).end();

  auto bytes = mb.build();
  auto module = wasm::decode_module(bytes);
  if (!module.ok() || !wasm::validate_module(*module).ok()) std::abort();
  wasm::Linker linker;
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  if (!inst.ok()) std::abort();

  std::vector<TypedValue> args = {TypedValue::i32(10000)};
  for (auto _ : state) {
    auto r = (*inst)->call("work", args);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}

void BM_DispatchThroughput(benchmark::State& state) {
  // Core dispatch loop, metered vs unmetered. Under the old per-instruction
  // fuel model the metered arm paid a decrement+branch on every retired
  // instruction; with block-level (segment) charging both arms run the same
  // hot loop and the gap collapses to one charge per straight-line segment.
  // Also asserts the warm-call zero-allocation guarantee with real
  // operator-new counts (this TU overrides global new/delete into
  // heap_probe), so a regression aborts the bench rather than just skewing
  // the numbers.
  auto inst = instantiate_w(R"(
    export fn work(n: i32) -> i32 {
      var acc: i32 = 0;
      var i: i32 = 0;
      while (i < n) {
        if (i % 3 == 0) { acc = acc + i * 7; } else { acc = acc - i / 3; }
        i = i + 1;
      }
      return acc;
    }
  )");
  int64_t n = state.range(0);
  const bool metered = state.range(1) != 0;
  wasm::CallOptions opts;
  opts.fuel = metered ? uint64_t{1} << 40 : uint64_t{0};
  wasm::CallStats stats;
  std::vector<TypedValue> args = {TypedValue::i32(static_cast<int32_t>(n))};

  // Warm up, then assert zero heap traffic across repeated warm calls.
  for (int i = 0; i < 4; ++i) {
    if (!inst->call("work", args, opts, &stats).ok()) std::abort();
  }
  const uint64_t allocs_before = heap_probe::allocations();
  for (int i = 0; i < 64; ++i) {
    if (!inst->call("work", args, opts, &stats).ok()) std::abort();
  }
  const uint64_t warm_allocs = heap_probe::allocations() - allocs_before;
  if (warm_allocs != 0) {
    std::fprintf(stderr,
                 "zero-alloc guarantee broken: %llu heap allocations across "
                 "64 warm Instance::call invocations\n",
                 static_cast<unsigned long long>(warm_allocs));
    std::abort();
  }

  for (auto _ : state) {
    auto r = inst->call("work", args, opts, &stats);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stats.instrs_retired));
  state.counters["instrs_per_call"] = static_cast<double>(stats.instrs_retired);
  state.counters["fuel_per_call"] = static_cast<double>(stats.fuel_used);
  state.counters["warm_heap_allocs"] = static_cast<double>(warm_allocs);
}

void BM_DecodeValidate(benchmark::State& state) {
  // Toolchain-side cost: how long from plugin bytes to a validated module
  // (the static-analysis step MNOs run before deployment, §3A).
  auto bytes = wcc::compile(R"(
    export fn schedule() -> i32 {
      var i: i32 = 0;
      while (i < 100) { store32(i * 4, i); i = i + 1; }
      output_write(0, 400);
      return 0;
    }
  )");
  if (!bytes.ok()) std::abort();
  for (auto _ : state) {
    auto module = wasm::decode_module(*bytes);
    if (!module.ok()) std::abort();
    auto st = wasm::validate_module(*module);
    benchmark::DoNotOptimize(st);
  }
}

BENCHMARK(BM_ArithmeticLoop)->Arg(1000)->Arg(100000);
BENCHMARK(BM_F64Loop)->Arg(1000)->Arg(100000);
BENCHMARK(BM_MemoryStream)->Arg(1000)->Arg(100000);
BENCHMARK(BM_WasmToWasmCall);
BENCHMARK(BM_HostCallRoundTrip);
BENCHMARK(BM_CallIndirect);
BENCHMARK(BM_DispatchThroughput)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->ArgNames({"n", "metered"});
BENCHMARK(BM_DecodeValidate);

/// Console reporting plus machine-readable capture: every run lands in the
/// shared BENCH_interp.json as `abl_engine.<name>.ns_per_op` and one entry
/// per user counter (items_per_second, warm_heap_allocs, ...), which CI
/// archives and gates regressions on (scripts/check_bench.py).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string base = "abl_engine." + run.benchmark_name();
      entries[base + ".ns_per_op"] = run.GetAdjustedRealTime();
      for (const auto& [name, counter] : run.counters) {
        entries[base + "." + name] = static_cast<double>(counter.value);
      }
    }
  }
  std::map<std::string, double> entries;
};

}  // namespace

// Defining main here keeps benchmark_main's archive member out of the link
// while letting the usual --benchmark_* flags work unchanged.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  waran::bench::bench_json_merge(reporter.entries);
  return 0;
}
