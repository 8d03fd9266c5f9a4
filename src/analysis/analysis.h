// waran::analysis — static analysis over translated micro-op streams.
//
// Two cooperating pieces (doc/analysis.md):
//
//  1. Stream verifier (verify_func / verify_module): checks any
//     TranslatedFunc against the structural invariants the interpreter
//     relies on but never re-checks at run time: branch targets land on
//     micro-op boundaries with matching operand heights, fuel-segment
//     charges tile the stream (every straight-line run entered through
//     exactly one charge, never zero, never two), operand-stack effects of
//     every micro-op stay within TranslatedFunc::max_stack, call/resume
//     points are followed by a charge, and every local/global/function/type
//     index is in range. A stream that passes cannot make the interpreter
//     read outside its reserved operand region, jump into the middle of a
//     fused superinstruction, or execute a run of micro-ops uncharged.
//
//  2. Abstract interpreter (analyze): computes per-function worst-case
//     bounds over the verified stream — maximum operand-stack depth,
//     minimum/maximum frame depth through the static call graph,
//     min-fuel-to-complete and worst-case fuel, and a "may loop"
//     classification. Bounds are sound: min_* are true lower bounds on any
//     completing execution, max_*/worst_* are true upper bounds when
//     finite (kUnbounded = a loop, recursion, or an indirect call makes
//     the bound not statically finite).
//
// Admission (admit): evaluates a module's exported functions against a
// slot budget before the first call. Rejections are *sound*: a plugin is
// refused only when every execution of some export must exceed the budget
// (min fuel above the per-call fuel limit, or minimum frame need above the
// engine call-depth limit), so admission never rejects a plugin that could
// have run. PluginManager::install/swap runs this when
// PluginLimits::admission is enabled; `waranc analyze` prints the same
// report for xApp authors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "wasm/translate.h"

namespace waran::wasm {
struct Module;
}

namespace waran::analysis {

// --- Stream verifier -------------------------------------------------------

/// Checks one translated stream against every structural invariant. `tf`
/// must belong to `m` (its call/global/type indices are resolved against
/// the module). Returns kValidation with a
/// "<invariant>: ..." message naming the first violated invariant.
Status verify_func(const wasm::Module& m, const wasm::TranslatedFunc& tf);

/// verify_func over every defined function; the error message carries the
/// defined-function index of the first failure.
Status verify_module(const wasm::Module& m, const wasm::TranslatedModule& tm);

/// Installs verify_func as the wasm layer's stream firewall
/// (wasm::set_stream_firewall): translate() then rejects any lowering that
/// breaks an invariant, turning a miscompile into an immediate error
/// instead of a differential-oracle divergence. Idempotent; meant for
/// debug/fuzz drivers, tests and waranc — the production hot path keeps the
/// hook null.
void install_stream_firewall();

// --- Abstract interpreter (per-function worst-case bounds) -----------------

/// "Not statically finite": a loop, recursion, or an indirect call.
inline constexpr uint64_t kUnbounded = UINT64_MAX;

struct FuncBounds {
  /// Max operand-stack height reached on any path (== the region the
  /// interpreter must reserve; always <= TranslatedFunc::max_stack on a
  /// verified stream).
  uint32_t max_operand_depth = 0;
  /// Min fuel any completing execution charges (shortest path to return
  /// through the call graph; host-call and indirect-call bodies count 0).
  /// kUnbounded: no path completes (every path loops or traps).
  uint64_t min_fuel = kUnbounded;
  /// Max fuel any execution can charge; finite only when the control-flow
  /// graph and everything reachable through the call graph is acyclic and
  /// free of indirect calls.
  uint64_t worst_fuel = kUnbounded;
  /// Frames needed by the shallowest completing path (>= 1: the function's
  /// own frame). An invocation with max_call_depth < min_frames *must*
  /// trap. kUnbounded: no path completes.
  uint64_t min_frames = kUnbounded;
  /// Frame-depth upper bound across all paths; kUnbounded on recursion or
  /// indirect calls.
  uint64_t max_frames = kUnbounded;
  /// A cycle is reachable in the function's own control-flow graph or in
  /// any statically-known callee: fuel is what bounds execution, not the
  /// stream length.
  bool may_loop = false;

  bool completes() const { return min_fuel != kUnbounded; }
};

struct ModuleAnalysis {
  /// Parallel to Module::codes / TranslatedModule::funcs.
  std::vector<FuncBounds> funcs;
};

/// Verifies every stream, then computes FuncBounds for every defined
/// function (interprocedural fixpoint over the static call graph). Fails
/// with the verifier's error if any stream is malformed — bounds are only
/// meaningful over streams the interpreter can actually run.
Result<ModuleAnalysis> analyze(const wasm::Module& m, const wasm::TranslatedModule& tm);

// --- Admission -------------------------------------------------------------

/// Where admission analysis runs on PluginManager::install/swap.
enum class AdmissionMode : uint8_t {
  kOff = 0,  ///< no analysis (the pre-PR-10 behaviour)
  kWarn,     ///< analyze and keep the report; never reject
  kEnforce,  ///< reject plugins whose static bounds exceed the budget
};

/// The slot budget admission checks against (distilled from PluginLimits
/// plus the engine's call-depth limit).
struct AdmissionLimits {
  uint64_t fuel_per_call = 0;    ///< 0 = fuel metering off
  uint32_t max_call_depth = 256; ///< Instance frame limit
};

/// Verdict for one exported function.
struct ExportReport {
  std::string name;
  uint32_t func_index = 0;  ///< module-level function index
  FuncBounds bounds;
  /// Sound reject reasons; empty = this export fits the budget.
  std::vector<std::string> violations;
};

struct AdmissionReport {
  bool verified = false;   ///< every stream passed the verifier
  bool admitted = false;   ///< verified and no export carries a violation
  std::string verifier_error;
  AdmissionLimits limits;
  std::vector<ExportReport> exports;  ///< exported wasm functions only

  /// First violation (or the verifier error) — the anomaly/log detail.
  std::string reject_reason() const;
  /// Multi-line human-readable report (waranc analyze).
  std::string summary() const;
};

/// Runs verifier + bounds analysis and evaluates every exported defined
/// function against `limits`. Host-function exports and non-function
/// exports are ignored. A module with no exported wasm functions is
/// vacuously admitted (the plugin layer fails such calls per-call).
AdmissionReport admit(const wasm::Module& m, const wasm::TranslatedModule& tm,
                      const AdmissionLimits& limits);

}  // namespace waran::analysis
