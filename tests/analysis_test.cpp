// waran::analysis unit + integration tests: hand-built malformed micro-op
// streams for each verifier invariant, abstract-interpretation bounds over
// known-shape programs, admission accept/reject for the real scheduler
// plugins against PluginLimits, and an admission-rejection episode through
// the deployment layer (exactly one anomaly, zero calls).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "obs/anomaly.h"
#include "plugin/manager.h"
#include "rt/deployment.h"
#include "sched/plugins.h"
#include "wasm/wasm.h"
#include "wasmbuilder/builder.h"
#include "wcc/compiler.h"

namespace waran {
namespace {

using wasm::FuncType;
using wasm::TranslatedFunc;
using wasm::UInstr;
using wasm::UOp;
using wasm::ValType;
using wasmbuilder::ModuleBuilder;

UInstr ui(UOp op, uint16_t a = 0, uint32_t b = 0, uint32_t x = 0, uint32_t y = 0) {
  UInstr u;
  u.op = op;
  u.a = a;
  u.b = b;
  u.imm.pair.x = x;
  u.imm.pair.y = y;
  return u;
}

/// Context module the hand-built streams resolve indices against: one
/// defined function () -> i32 (index 0), a memory, no imports.
wasm::Module ctx_module() {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "f");
  f.i32_const(0).end();
  auto m = wasm::decode_module(mb.build());
  EXPECT_TRUE(m.ok());
  EXPECT_TRUE(wasm::validate_module(*m).ok());
  return std::move(*m);
}

TranslatedFunc make_tf(std::vector<UInstr> ops, uint32_t max_stack = 4,
                       uint8_t result_arity = 1, uint32_t num_locals = 1) {
  TranslatedFunc tf;
  tf.ops = std::move(ops);
  tf.max_stack = max_stack;
  tf.num_params = 0;
  tf.num_locals = num_locals;
  tf.result_arity = result_arity;
  return tf;
}

void expect_invariant(const wasm::Module& m, const TranslatedFunc& tf,
                      const char* invariant) {
  Status st = analysis::verify_func(m, tf);
  ASSERT_FALSE(st.ok()) << "stream unexpectedly passed; wanted " << invariant;
  EXPECT_NE(st.error().message.find(invariant), std::string::npos)
      << "wanted '" << invariant << "', got: " << st.error().message;
}

TEST(StreamVerifier, RejectsEachInvariantViolation) {
  const wasm::Module m = ctx_module();
  const UInstr kSeg1 = ui(UOp::kSeg, 0, 1);
  const UInstr kConst = ui(UOp::kConst);
  const UInstr kRet = ui(UOp::kReturn);

  // entry-charge: first op carries no segment charge.
  expect_invariant(m, make_tf({kConst, kRet}), "entry-charge");
  // zero-charge: a kSeg charging nothing runs its whole run unmetered.
  expect_invariant(m, make_tf({ui(UOp::kSeg, 0, 0), kConst, kRet}), "zero-charge");
  // zero-charge on a taken edge.
  expect_invariant(
      m, make_tf({kSeg1, kConst, ui(UOp::kJumpZ, 0, 4, 0, 0), kSeg1, kRet}),
      "zero-charge");
  // fall-off-end: the last op falls through past the stream.
  expect_invariant(m, make_tf({kSeg1, kConst}), "fall-off-end");
  // uncharged-resume: a conditional branch whose untaken run has no charge.
  expect_invariant(
      m, make_tf({kSeg1, kConst, ui(UOp::kJumpZ, 0, 4, 0, 1), kConst, kRet}),
      "uncharged-resume");
  // uncharged-resume after a call (the resume segment is missing).
  expect_invariant(m, make_tf({kSeg1, ui(UOp::kCallWasm, 0, 0), kConst, kRet}),
                   "uncharged-resume");
  // double-charge: taken edge lands on a charge-carrying op (op 0).
  expect_invariant(
      m, make_tf({kSeg1, kConst, ui(UOp::kJumpZ, 0, 0, 0, 1), kSeg1, kRet}),
      "double-charge");
  // target-range: branch outside the stream.
  expect_invariant(
      m, make_tf({kSeg1, kConst, ui(UOp::kJumpZ, 0, 99, 0, 1), kSeg1, kRet}),
      "target-range");
  // target-range: kBr cannot carry kRetTarget (its handler never checks).
  expect_invariant(
      m, make_tf({kSeg1, kConst, ui(UOp::kBr, 0, wasm::kRetTarget, 0, 1)}),
      "target-range");
  // target-range: br_table slice outside br_entries.
  expect_invariant(
      m, make_tf({kSeg1, kConst, ui(UOp::kBrTable, 0, 0, 0, 0)}, 4, 0),
      "target-range");
  // stack-underflow: pop from an empty operand stack.
  expect_invariant(m, make_tf({kSeg1, ui(UOp::kDrop), kRet}), "stack-underflow");
  // stack-overflow: height exceeds the reserved max_stack region.
  expect_invariant(m, make_tf({kSeg1, kConst, kConst, kRet}, /*max_stack=*/1),
                   "stack-overflow");
  // return-arity: frame pop with fewer values than the signature returns.
  expect_invariant(m, make_tf({kSeg1, kRet}), "return-arity");
  // height-merge: the same join reached at two different operand heights
  // (taken at 0, fall-through after a push at 1).
  expect_invariant(m,
                   make_tf({kSeg1, kConst, ui(UOp::kJumpZ, 0, 5, 0, 1), kSeg1,
                            ui(UOp::kLocalGet, 0, 0), kRet},
                           4, /*result_arity=*/0),
                   "height-merge");
  // unwind: branch unwinds to a height above the current operand height.
  expect_invariant(
      m, make_tf({kSeg1, kConst, ui(UOp::kBr, 0, 1, /*height=*/2, 1)}, 4, 0),
      "unwind");
  // index-range: local out of range.
  expect_invariant(m, make_tf({kSeg1, ui(UOp::kLocalGet, 0, 7), kRet}),
                   "index-range");
  // index-range: callee is not a defined function.
  expect_invariant(m, make_tf({kSeg1, ui(UOp::kCallWasm, 0, 5), kSeg1, kRet}),
                   "index-range");
  // bad-opcode: op value outside the dispatch table.
  expect_invariant(
      m, make_tf({kSeg1, ui(static_cast<UOp>(60000)), kRet}), "bad-opcode");
}

TEST(StreamVerifier, AcceptsRealTranslations) {
  for (const char* kind : {"rr", "pf", "mt"}) {
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok()) << kind;
    auto m = wasm::decode_module(*bytes);
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE(wasm::validate_module(*m).ok());
    ASSERT_TRUE(wasm::translate_module(*m).ok());
    EXPECT_TRUE(analysis::verify_module(*m, *m->translated).ok()) << kind;
  }
}

// --- Abstract interpreter bounds -------------------------------------------

wasm::Module compile_and_translate(const char* src) {
  auto bytes = wcc::compile(src);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  auto m = wasm::decode_module(*bytes);
  EXPECT_TRUE(m.ok());
  EXPECT_TRUE(wasm::validate_module(*m).ok());
  EXPECT_TRUE(wasm::translate_module(*m).ok());
  return std::move(*m);
}

const analysis::FuncBounds& bounds_of(const wasm::Module& m,
                                      const analysis::ModuleAnalysis& ana,
                                      const std::string& name) {
  for (const wasm::Export& e : m.exports) {
    if (e.kind == wasm::ImportKind::kFunc && e.name == name) {
      return ana.funcs[e.index - m.num_imported_funcs];
    }
  }
  ADD_FAILURE() << "no export " << name;
  static analysis::FuncBounds none;
  return none;
}

TEST(Bounds, StraightLineFunctionIsFullyBounded) {
  wasm::Module m = compile_and_translate("export fn f() -> i32 { return 7; }");
  auto ana = analysis::analyze(m, *m.translated);
  ASSERT_TRUE(ana.ok()) << ana.error().message;
  const analysis::FuncBounds& b = bounds_of(m, *ana, "f");
  EXPECT_FALSE(b.may_loop);
  EXPECT_TRUE(b.completes());
  EXPECT_EQ(b.min_fuel, b.worst_fuel);  // single path
  EXPECT_EQ(b.min_frames, 1u);
  EXPECT_EQ(b.max_frames, 1u);
  EXPECT_GE(b.max_operand_depth, 1u);
}

TEST(Bounds, LoopMakesWorstCaseUnboundedButMinFinite) {
  wasm::Module m = compile_and_translate(R"(
    export fn work(n: i32) -> i32 {
      var acc: i32 = 0;
      var i: i32 = 0;
      while (i < n) { acc = acc + i; i = i + 1; }
      return acc;
    })");
  auto ana = analysis::analyze(m, *m.translated);
  ASSERT_TRUE(ana.ok()) << ana.error().message;
  const analysis::FuncBounds& b = bounds_of(m, *ana, "work");
  EXPECT_TRUE(b.may_loop);
  EXPECT_EQ(b.worst_fuel, analysis::kUnbounded);
  EXPECT_TRUE(b.completes());  // n <= 0 falls straight through
  EXPECT_LT(b.min_fuel, 100u);
  EXPECT_EQ(b.min_frames, 1u);
  EXPECT_EQ(b.max_frames, 1u);
}

TEST(Bounds, CallChainCountsFramesInterprocedurally) {
  wasm::Module m = compile_and_translate(R"(
    fn leaf(x: i32) -> i32 { return x + 1; }
    export fn f() -> i32 { return leaf(41); })");
  auto ana = analysis::analyze(m, *m.translated);
  ASSERT_TRUE(ana.ok()) << ana.error().message;
  const analysis::FuncBounds& b = bounds_of(m, *ana, "f");
  EXPECT_FALSE(b.may_loop);
  EXPECT_EQ(b.min_frames, 2u);
  EXPECT_EQ(b.max_frames, 2u);
  EXPECT_TRUE(b.completes());
  EXPECT_NE(b.worst_fuel, analysis::kUnbounded);
  EXPECT_GE(b.worst_fuel, b.min_fuel);
}

TEST(Bounds, RecursionNeverCompletes) {
  // f() { return f(); } — no completing path, unbounded frames.
  ModuleBuilder mb;
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "boom");
  f.call(0).end();
  auto m = wasm::decode_module(mb.build());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(wasm::validate_module(*m).ok());
  ASSERT_TRUE(wasm::translate_module(*m).ok());
  auto ana = analysis::analyze(*m, *m->translated);
  ASSERT_TRUE(ana.ok()) << ana.error().message;
  const analysis::FuncBounds& b = bounds_of(*m, *ana, "boom");
  EXPECT_FALSE(b.completes());
  EXPECT_EQ(b.min_fuel, analysis::kUnbounded);
  EXPECT_EQ(b.max_frames, analysis::kUnbounded);

  analysis::AdmissionReport report =
      analysis::admit(*m, *m->translated, analysis::AdmissionLimits{});
  EXPECT_TRUE(report.verified);
  EXPECT_FALSE(report.admitted);
  EXPECT_NE(report.reject_reason().find("no statically completing path"),
            std::string::npos)
      << report.reject_reason();
}

TEST(Bounds, AdmissionRejectsOnMinimumFrameNeed) {
  wasm::Module m = compile_and_translate(R"(
    fn leaf(x: i32) -> i32 { return x + 1; }
    export fn f() -> i32 { return leaf(41); })");
  analysis::AdmissionLimits limits;
  limits.max_call_depth = 1;  // f needs 2 frames on every path
  analysis::AdmissionReport report = analysis::admit(m, *m.translated, limits);
  EXPECT_TRUE(report.verified);
  EXPECT_FALSE(report.admitted);
  EXPECT_NE(report.reject_reason().find("call depth"), std::string::npos)
      << report.reject_reason();
  // The same module fits a deeper budget.
  limits.max_call_depth = 2;
  EXPECT_TRUE(analysis::admit(m, *m.translated, limits).admitted);
}

// --- PluginManager admission ------------------------------------------------

TEST(Admission, AcceptsExampleSchedulersUnderDefaultBudget) {
  plugin::PluginManager mgr;
  mgr.set_domain("adm-accept");
  mgr.set_admission(analysis::AdmissionMode::kEnforce);
  for (const char* kind : {"rr", "pf", "mt"}) {
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok()) << kind;
    ASSERT_TRUE(mgr.install(kind, *bytes).ok()) << kind;
    const analysis::AdmissionReport* report = mgr.admission_report(kind);
    ASSERT_NE(report, nullptr) << kind;
    EXPECT_TRUE(report->verified);
    EXPECT_TRUE(report->admitted);
    bool found_schedule = false;
    for (const analysis::ExportReport& e : report->exports) {
      if (e.name != "schedule") continue;
      found_schedule = true;
      EXPECT_TRUE(e.violations.empty());
      EXPECT_GE(e.bounds.min_fuel, 1u);
      EXPECT_LE(e.bounds.min_fuel, plugin::PluginLimits{}.fuel_per_call);
      EXPECT_GE(e.bounds.min_frames, 1u);
    }
    EXPECT_TRUE(found_schedule) << kind;
  }
}

TEST(Admission, RejectsOverBudgetPluginBeforeFirstCall) {
  plugin::PluginLimits limits;
  limits.fuel_per_call = 10;  // below every scheduler's static minimum
  limits.admission = analysis::AdmissionMode::kEnforce;
  plugin::PluginManager mgr(limits);
  mgr.set_domain("adm-reject");

  auto bytes = sched::plugins::scheduler("rr");
  ASSERT_TRUE(bytes.ok());
  Status st = mgr.install("mvno", *bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Error::Code::kLimitExceeded);
  EXPECT_FALSE(mgr.has("mvno"));  // never owned a slot, so zero calls ever

  const analysis::AdmissionReport* report = mgr.last_admission_report();
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->verified);
  EXPECT_FALSE(report->admitted);
  EXPECT_NE(report->reject_reason().find("fuel"), std::string::npos)
      << report->reject_reason();

  // Exactly one anomaly in this manager's domain, and it is the rejection.
  auto records = obs::AnomalyJournal::global().snapshot("adm-reject");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, obs::AnomalyKind::kAdmissionReject);
  EXPECT_EQ(records[0].source, "mvno");

  // The slot cannot be called — the plugin never ran.
  auto call = mgr.call("mvno", "schedule", {});
  ASSERT_FALSE(call.ok());
  EXPECT_EQ(call.error().code, Error::Code::kNotFound);
}

TEST(Admission, WarnModeKeepsReportButInstalls) {
  plugin::PluginLimits limits;
  limits.fuel_per_call = 10;
  limits.admission = analysis::AdmissionMode::kWarn;
  plugin::PluginManager mgr(limits);
  mgr.set_domain("adm-warn");

  auto bytes = sched::plugins::scheduler("rr");
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(mgr.install("mvno", *bytes).ok());
  EXPECT_TRUE(mgr.has("mvno"));
  const analysis::AdmissionReport* report = mgr.admission_report("mvno");
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->verified);
  EXPECT_FALSE(report->admitted);  // would have been rejected under enforce
  EXPECT_TRUE(obs::AnomalyJournal::global().snapshot("adm-warn").empty());
}

TEST(Admission, SwapIsAdmissionCheckedToo) {
  plugin::PluginManager mgr;
  mgr.set_domain("adm-swap");
  mgr.set_admission(analysis::AdmissionMode::kEnforce);
  auto bytes = sched::plugins::scheduler("rr");
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(mgr.install("mvno", *bytes).ok());

  // A replacement that cannot complete must be refused; the old plugin
  // keeps the slot (the hot-swap guarantee extends to admission).
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto& f = mb.add_func(FuncType{{}, {ValType::kI32}}, "schedule");
  f.call(0).end();
  Status st = mgr.swap("mvno", mb.build());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Error::Code::kLimitExceeded);
  EXPECT_TRUE(mgr.has("mvno"));
  const analysis::AdmissionReport* report = mgr.admission_report("mvno");
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->admitted);  // the slot still holds the admitted plugin
}

// --- Deployment-level episode ----------------------------------------------

TEST(AdmissionEpisode, RejectedSchedulerFailsDeploymentWithOneAnomaly) {
  const size_t before =
      obs::AnomalyJournal::global().snapshot("mac0").size();

  rt::DeploymentConfig cfg;
  cfg.cells = 1;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.admission = analysis::AdmissionMode::kEnforce;
  cfg.sched_fuel_per_call = 10;  // below every scheduler's static minimum
  rt::GnbDeployment dep(cfg);

  // Construction aborts at the first slice: the rejected plugin never runs.
  EXPECT_FALSE(dep.status().ok());
  EXPECT_EQ(dep.status().error().code, Error::Code::kLimitExceeded);

  auto records = obs::AnomalyJournal::global().snapshot("mac0");
  ASSERT_EQ(records.size(), before + 1);  // exactly one new anomaly
  EXPECT_EQ(records.back().kind, obs::AnomalyKind::kAdmissionReject);

  // The same deployment with an adequate budget constructs cleanly.
  cfg.sched_fuel_per_call = 0;  // PluginLimits default
  rt::GnbDeployment ok_dep(cfg);
  EXPECT_TRUE(ok_dep.status().ok()) << ok_dep.status().error().message;
}

}  // namespace
}  // namespace waran
