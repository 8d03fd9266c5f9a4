// WA-RAN plugin framework (the paper's core mechanism, modeled on Extism):
// a Plugin wraps one wasm instance plus an input/output exchange buffer.
// The host passes a serialized request by exposing it through the
// `waran.input_*` host functions; the plugin computes and hands back a
// response through `waran.output_write`. All plugin failures — traps, fuel
// exhaustion, malformed output — surface as Result errors the host can
// contain (paper §5D, §6A).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "common/result.h"
#include "wasm/wasm.h"

namespace waran::plugin {

/// Per-plugin resource policy. Defaults bound a scheduler plugin well below
/// the 1 ms slot budget on any plausible host.
struct PluginLimits {
  /// Fuel units (≈ interpreted instructions) per call; 0 disables metering.
  uint64_t fuel_per_call = 2'000'000;
  /// Wall-clock budget per call in nanoseconds; 0 disables the deadline.
  /// Overruns surface as fuel exhaustion (the paper's slot-budget guard).
  uint64_t deadline_ns_per_call = 0;
  /// Largest input payload the host will pass in.
  uint32_t max_input_bytes = 1 << 20;
  /// Largest output payload the host will accept.
  uint32_t max_output_bytes = 1 << 20;
  /// Consecutive faults before the manager quarantines the plugin (§6A).
  uint32_t quarantine_after_faults = 3;
  /// Admission-time static analysis (analysis/analysis.h): PluginManager
  /// verifies the translated streams and checks every export's static
  /// fuel/frame bounds against this slot budget before the first call.
  /// kEnforce refuses plugins that *must* exceed it; kWarn only reports.
  analysis::AdmissionMode admission = analysis::AdmissionMode::kOff;
};

/// One-call budget overrides, tightening (or loosening) the slot's standing
/// PluginLimits for a single sandbox crossing. The chaos harness uses this
/// to force *real* engine-level fuel/deadline exhaustion on schedule; the
/// FuelGovernor path keeps using set_fuel_per_call for standing changes.
struct CallOverrides {
  std::optional<uint64_t> fuel;         ///< fuel budget for this call only
  std::optional<uint64_t> deadline_ns;  ///< wall-clock budget for this call only
};

/// One loaded plugin instance.
class Plugin {
 public:
  /// Decodes, validates and instantiates `module_bytes`. `extra_host` lets
  /// the embedder expose additional control-surface functions (the gNB /
  /// RIC host functions of paper §4B) beyond the base `waran.*` ABI.
  static Result<std::unique_ptr<Plugin>> load(std::span<const uint8_t> module_bytes,
                                              const wasm::Linker& extra_host = {},
                                              const PluginLimits& limits = {});

  /// Calls exported `fn` with `input` available via the ABI; returns the
  /// bytes the plugin wrote with output_write. The exported function must
  /// have type () -> i32 and return 0; a nonzero return is a plugin-declared
  /// failure. `overrides` tightens the per-call budgets for this call only.
  Result<std::vector<uint8_t>> call(const std::string& fn, std::span<const uint8_t> input,
                                    const CallOverrides& overrides = {});

  /// True if the module exports function `fn`.
  bool has_export(const std::string& fn) const;

  const PluginLimits& limits() const { return limits_; }

  /// Adjusts the per-call fuel budget at runtime (driven by FuelGovernor).
  void set_fuel_per_call(uint64_t fuel) { limits_.fuel_per_call = fuel; }
  /// Cost record of the most recent call (fuel, instructions, wall time,
  /// peak interpreter stack depth); all zero before any call and after a
  /// call refused before dispatch.
  const wasm::CallStats& last_call_stats() const { return last_call_stats_; }

  /// Linear-memory footprint right now (bytes). Fig. 5c probes this.
  size_t memory_bytes() const;

  /// Log lines emitted via waran.log since the last call (cleared per call).
  const std::vector<std::string>& log_lines() const { return exchange_.log; }

  wasm::Instance& instance() { return *instance_; }

 private:
  Plugin() = default;

  struct Exchange {
    std::vector<uint8_t> input;
    std::vector<uint8_t> output;
    std::vector<std::string> log;
    uint32_t max_output_bytes = 0;
  };

  static void register_abi(wasm::Linker& linker);

  std::shared_ptr<const wasm::Module> module_;
  std::unique_ptr<wasm::Instance> instance_;
  Exchange exchange_;
  PluginLimits limits_;
  wasm::CallStats last_call_stats_;
};

}  // namespace waran::plugin
