// Plugin framework tests: the Extism-like ABI, fuel policy, fault
// containment, hot swap and quarantine — the mechanics behind the paper's
// §5C (flexibility) and §5D (memory safety) results.
#include <gtest/gtest.h>

#include "tests/heap_probe_guard.h"

#include "common/tracked_alloc.h"
#include "plugin/manager.h"
#include "plugin/plugin.h"
#include "wcc/compiler.h"

namespace waran::plugin {
namespace {

std::vector<uint8_t> compile(const char* src) {
  auto bytes = wcc::compile(src);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

const char* kEchoSrc = R"(
  export fn run() -> i32 {
    var n: i32 = input_len();
    input_read(0, 0, n);
    output_write(0, n);
    return 0;
  }
)";

const char* kSumSrc = R"(
  // Sums input bytes, writes the 32-bit sum.
  export fn run() -> i32 {
    var n: i32 = input_len();
    input_read(0, 0, n);
    var sum: i32 = 0;
    var i: i32 = 0;
    while (i < n) {
      sum = sum + load8u(i);
      i = i + 1;
    }
    store32(1024, sum);
    output_write(1024, 4);
    return 0;
  }
)";

TEST(Plugin, EchoRoundTrip) {
  auto p = Plugin::load(compile(kEchoSrc));
  ASSERT_TRUE(p.ok()) << p.error().message;
  std::vector<uint8_t> input = {9, 8, 7};
  auto out = (*p)->call("run", input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
  EXPECT_GT((*p)->last_call_stats().instrs_retired, 0u);  // dispatched
}

TEST(Plugin, SumComputes) {
  auto p = Plugin::load(compile(kSumSrc));
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> input = {10, 20, 30, 40};
  auto out = (*p)->call("run", input);
  ASSERT_TRUE(out.ok()) << out.error().message;
  ASSERT_EQ(out->size(), 4u);
  uint32_t sum;
  memcpy(&sum, out->data(), 4);
  EXPECT_EQ(sum, 100u);
}

TEST(Plugin, EmptyInputYieldsEmptyEcho) {
  auto p = Plugin::load(compile(kEchoSrc));
  ASSERT_TRUE(p.ok());
  auto out = (*p)->call("run", {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(Plugin, NonzeroStatusIsError) {
  auto p = Plugin::load(compile("export fn run() -> i32 { return 7; }"));
  ASSERT_TRUE(p.ok());
  auto out = (*p)->call("run", {});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, Error::Code::kState);
  EXPECT_NE(out.error().message.find("7"), std::string::npos);
}

TEST(Plugin, WrongEntrypointTypeRejected) {
  auto p = Plugin::load(compile("export fn run(x: i32) -> i32 { return x; }"));
  ASSERT_TRUE(p.ok());
  auto out = (*p)->call("run", {});
  EXPECT_FALSE(out.ok());
}

TEST(Plugin, OutputTooLargeIsTrapped) {
  PluginLimits limits;
  limits.max_output_bytes = 16;
  auto p = Plugin::load(compile(R"(
    export fn run() -> i32 { output_write(0, 1000); return 0; }
  )"),
                        {}, limits);
  ASSERT_TRUE(p.ok());
  auto out = (*p)->call("run", {});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.error().message.find("output exceeds"), std::string::npos);
}

TEST(Plugin, OutputFromOutOfBoundsMemoryTraps) {
  auto p = Plugin::load(compile(R"(
    export fn run() -> i32 { output_write(99999999, 8); return 0; }
  )"));
  ASSERT_TRUE(p.ok());
  auto out = (*p)->call("run", {});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, Error::Code::kTrap);
}

TEST(Plugin, FuelExhaustionIsContained) {
  PluginLimits limits;
  limits.fuel_per_call = 1000;
  auto p = Plugin::load(compile(R"(
    export fn run() -> i32 { while (1) {} return 0; }
  )"),
                        {}, limits);
  ASSERT_TRUE(p.ok());
  auto out = (*p)->call("run", {});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, Error::Code::kFuelExhausted);
  EXPECT_EQ((*p)->last_call_stats().fuel_used, 1000u);  // the whole budget
}

TEST(Plugin, TrapDoesNotPoisonNextCall) {
  // §5D: the host catches the exception and continues running.
  auto p = Plugin::load(compile(R"(
    export fn crash() -> i32 { return load32(123456789); }
    export fn run() -> i32 { output_write(0, 0); return 0; }
  )"));
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 5; ++i) {
    auto bad = (*p)->call("crash", {});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, Error::Code::kTrap);
    auto good = (*p)->call("run", {});
    EXPECT_TRUE(good.ok());
  }
}

TEST(Plugin, InputTooLargeRejectedBeforeExecution) {
  PluginLimits limits;
  limits.max_input_bytes = 8;
  auto p = Plugin::load(compile(kEchoSrc), {}, limits);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->call("run", std::vector<uint8_t>{1, 2}).ok());
  ASSERT_GT((*p)->last_call_stats().instrs_retired, 0u);
  std::vector<uint8_t> big(100, 1);
  auto out = (*p)->call("run", big);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, Error::Code::kLimitExceeded);
  EXPECT_EQ((*p)->last_call_stats().instrs_retired, 0u);  // never dispatched
}

TEST(Plugin, LogLinesCaptured) {
  // 'hi' at address 0 via stores, then log(0, 2).
  auto p = Plugin::load(compile(R"(
    export fn run() -> i32 {
      store8(0, 104);
      store8(1, 105);
      log(0, 2);
      output_write(0, 0);
      return 0;
    }
  )"));
  ASSERT_TRUE(p.ok());
  auto out = (*p)->call("run", {});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*p)->log_lines().size(), 1u);
  EXPECT_EQ((*p)->log_lines()[0], "hi");
}

TEST(Plugin, AbortHostFunctionTraps) {
  auto p = Plugin::load(compile("export fn run() -> i32 { abort(3); return 0; }"));
  ASSERT_TRUE(p.ok());
  auto out = (*p)->call("run", {});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.error().message.find("code 3"), std::string::npos);
}

TEST(Plugin, MalformedModuleRejectedAtLoad) {
  std::vector<uint8_t> garbage = {0, 1, 2, 3};
  auto p = Plugin::load(garbage);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.error().code, Error::Code::kDecode);
}

// --- PluginManager: slots, swap, quarantine. ---

TEST(Manager, InstallAndCall) {
  PluginManager mgr;
  ASSERT_TRUE(mgr.install("mvno1", compile(kEchoSrc)).ok());
  EXPECT_TRUE(mgr.has("mvno1"));
  std::vector<uint8_t> input = {5};
  auto out = mgr.call("mvno1", "run", input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(Manager, DuplicateInstallRejected) {
  PluginManager mgr;
  ASSERT_TRUE(mgr.install("s", compile(kEchoSrc)).ok());
  EXPECT_FALSE(mgr.install("s", compile(kEchoSrc)).ok());
}

TEST(Manager, SwapChangesBehaviourAtomically) {
  PluginManager mgr;
  ASSERT_TRUE(mgr.install("s", compile(kEchoSrc)).ok());
  // Swap echo -> sum.
  ASSERT_TRUE(mgr.swap("s", compile(kSumSrc)).ok());
  std::vector<uint8_t> input = {1, 2, 3};
  auto out = mgr.call("s", "run", input);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);  // sum output, not echo
  EXPECT_EQ(mgr.health("s")->swaps, 1u);
}

TEST(Manager, FailedSwapKeepsOldPlugin) {
  PluginManager mgr;
  ASSERT_TRUE(mgr.install("s", compile(kEchoSrc)).ok());
  std::vector<uint8_t> garbage = {9, 9, 9};
  EXPECT_FALSE(mgr.swap("s", garbage).ok());
  // Old plugin still works.
  std::vector<uint8_t> input = {42};
  auto out = mgr.call("s", "run", input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(Manager, QuarantineAfterConsecutiveFaults) {
  PluginLimits limits;
  limits.quarantine_after_faults = 3;
  PluginManager mgr(limits);
  ASSERT_TRUE(mgr.install("bad", compile(R"(
    export fn run() -> i32 { trap(); return 0; }
  )")).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(mgr.call("bad", "run", {}).ok());
  }
  EXPECT_TRUE(mgr.health("bad")->quarantined);
  // Further calls rejected without dispatch.
  auto r = mgr.call("bad", "run", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("quarantined"), std::string::npos);
}

TEST(Manager, SuccessResetsConsecutiveFaultCount) {
  PluginLimits limits;
  limits.quarantine_after_faults = 3;
  PluginManager mgr(limits);
  // Trap when input is empty, succeed otherwise.
  ASSERT_TRUE(mgr.install("flaky", compile(R"(
    export fn run() -> i32 {
      if (input_len() == 0) { trap(); }
      output_write(0, 0);
      return 0;
    }
  )")).ok());
  std::vector<uint8_t> ok_input = {1};
  for (int round = 0; round < 4; ++round) {
    EXPECT_FALSE(mgr.call("flaky", "run", {}).ok());
    EXPECT_FALSE(mgr.call("flaky", "run", {}).ok());
    EXPECT_TRUE(mgr.call("flaky", "run", ok_input).ok());
  }
  EXPECT_FALSE(mgr.health("flaky")->quarantined);
}

TEST(Manager, SwapLiftsQuarantine) {
  PluginLimits limits;
  limits.quarantine_after_faults = 1;
  PluginManager mgr(limits);
  ASSERT_TRUE(mgr.install("s", compile(
      "export fn run() -> i32 { trap(); return 0; }")).ok());
  EXPECT_FALSE(mgr.call("s", "run", {}).ok());
  EXPECT_TRUE(mgr.health("s")->quarantined);
  ASSERT_TRUE(mgr.swap("s", compile(kEchoSrc)).ok());
  EXPECT_FALSE(mgr.health("s")->quarantined);
  EXPECT_TRUE(mgr.call("s", "run", {}).ok());
}

TEST(Manager, DeclinesDoNotQuarantine) {
  // A plugin that deliberately rejects its input (nonzero status) must not
  // be quarantined — rejecting bad frames is its job.
  PluginLimits limits;
  limits.quarantine_after_faults = 2;
  PluginManager mgr(limits);
  ASSERT_TRUE(mgr.install("validator", compile(R"(
    export fn run() -> i32 { return 1; }
  )")).ok());
  for (int i = 0; i < 10; ++i) {
    auto r = mgr.call("validator", "run", {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Error::Code::kState);
  }
  EXPECT_FALSE(mgr.health("validator")->quarantined);
  EXPECT_EQ(mgr.health("validator")->declines, 10u);
  EXPECT_EQ(mgr.health("validator")->faults, 0u);
}

TEST(Manager, RemoveSlot) {
  PluginManager mgr;
  ASSERT_TRUE(mgr.install("s", compile(kEchoSrc)).ok());
  ASSERT_TRUE(mgr.remove("s").ok());
  EXPECT_FALSE(mgr.has("s"));
  EXPECT_FALSE(mgr.call("s", "run", {}).ok());
  EXPECT_FALSE(mgr.remove("s").ok());
}

TEST(Manager, MemoryIsolationBetweenSlots) {
  // Two instances of the same module must not share linear memory.
  const char* src = R"(
    export fn run() -> i32 {
      var n: i32 = input_len();
      if (n > 0) {
        input_read(0, 0, 1);    // poke first input byte into memory[0]
      }
      output_write(0, 1);       // expose memory[0]
      return 0;
    }
  )";
  PluginManager mgr;
  ASSERT_TRUE(mgr.install("a", compile(src)).ok());
  ASSERT_TRUE(mgr.install("b", compile(src)).ok());
  std::vector<uint8_t> poke = {0xaa};
  ASSERT_TRUE(mgr.call("a", "run", poke).ok());
  auto b_out = mgr.call("b", "run", {});
  ASSERT_TRUE(b_out.ok());
  EXPECT_EQ((*b_out)[0], 0);  // b's memory untouched by a's write
}

TEST(Manager, WarmCallAccountingIsBounded) {
  // A slot's cost record is fixed-size: once warm, every call allocates
  // exactly what one warm call does (its output vector), however many
  // calls the slot has already served.
  PluginManager mgr;
  ASSERT_TRUE(mgr.install("s", compile(kEchoSrc)).ok());
  const std::vector<uint8_t> input = {1, 2, 3};
  int ok = 0;
  for (int i = 0; i < 1000; ++i) ok += mgr.call("s", "run", input).ok();
  uint64_t before = heap_probe::allocations();
  ok += mgr.call("s", "run", input).ok();
  const uint64_t per_call = heap_probe::allocations() - before;
  EXPECT_GT(per_call, 0u);  // the probe is live in this binary
  before = heap_probe::allocations();
  for (int i = 0; i < 4000; ++i) ok += mgr.call("s", "run", input).ok();
  EXPECT_EQ(heap_probe::allocations() - before, 4000 * per_call);
  EXPECT_EQ(ok, 5001);
  EXPECT_EQ(mgr.cost("s")->calls(), 5001u);
}

}  // namespace
}  // namespace waran::plugin
