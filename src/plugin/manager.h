// PluginManager: named plugin slots with on-the-fly replacement and fault
// quarantine.
//
// Hot swap (paper §3A "the update can be done on the fly ... without
// stopping or redeploying gNBs"): swap() fully decodes, validates and
// instantiates the replacement before it touches the slot, so a broken
// upload can never take down a working scheduler; the switch itself is a
// shared_ptr exchange between slot and caller.
//
// Quarantine (paper §6A fault tolerance): after `quarantine_after_faults`
// consecutive faults the slot refuses further calls until reset or swapped,
// and the embedder falls back to its default policy (the scheduler falls
// back to host-side round-robin).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "plugin/plugin.h"

namespace waran::plugin {

/// Fault and lifecycle state of one slot. Call counts and cost live in the
/// slot's CallCostAcc (PluginManager::cost).
struct SlotHealth {
  uint64_t faults = 0;            // sandbox faults: traps, fuel, limits
  uint64_t traps = 0;             //   .. of which wasm traps (OOB, unreachable, ...)
  uint64_t fuel_exhaustions = 0;  //   .. of which fuel/deadline exhaustion
  uint64_t declines = 0;          // plugin-declared rejections (no quarantine)
  uint32_t consecutive_faults = 0;
  uint64_t swaps = 0;
  bool quarantined = false;
  std::string last_error;
};

class PluginManager {
 public:
  explicit PluginManager(PluginLimits default_limits = {})
      : default_limits_(default_limits) {}

  /// Switches every *future* install/swap to admission-time static
  /// analysis (analysis/analysis.h): the plugin's translated streams are
  /// verified and every export's static fuel/frame bounds are checked
  /// against the slot budget (fuel_per_call + the engine call-depth limit)
  /// before the slot ever runs. kEnforce makes install/swap fail with
  /// kLimitExceeded — one kAdmissionReject anomaly, zero calls; kWarn only
  /// keeps the report.
  void set_admission(analysis::AdmissionMode mode) {
    default_limits_.admission = mode;
  }

  /// Admission report of the plugin currently in `slot` (null when the
  /// slot does not exist or was installed with admission off).
  const analysis::AdmissionReport* admission_report(const std::string& slot) const;

  /// Report from the most recent install/swap that ran admission analysis —
  /// including one that was *rejected* and therefore owns no slot.
  const analysis::AdmissionReport* last_admission_report() const {
    return last_admission_ ? &*last_admission_ : nullptr;
  }

  /// Observability domain this manager reports under ("mac", "gnb0",
  /// "ric"): the `domain` label on every per-slot metric and the journal
  /// domain for anomalies. Set before installing plugins; slots installed
  /// earlier keep the handles they resolved at install time.
  void set_domain(std::string domain) { domain_ = std::move(domain); }
  const std::string& domain() const { return domain_; }

  /// Installs a new plugin into `slot` (slot must not exist yet).
  Status install(const std::string& slot, std::span<const uint8_t> module_bytes,
                 const wasm::Linker& extra_host = {});

  /// Replaces the plugin in `slot`. The new module is validated and
  /// instantiated first; on any failure the old plugin keeps running.
  /// Clears quarantine on success.
  Status swap(const std::string& slot, std::span<const uint8_t> module_bytes,
              const wasm::Linker& extra_host = {});

  /// Removes a slot entirely (an MVNO being off-boarded).
  Status remove(const std::string& slot);

  /// Calls `fn` on the plugin in `slot`. Fault accounting + quarantine are
  /// applied here; a quarantined slot returns kState immediately.
  Result<std::vector<uint8_t>> call(const std::string& slot, const std::string& fn,
                                    std::span<const uint8_t> input);

  bool has(const std::string& slot) const { return slots_.contains(slot); }
  std::vector<std::string> slot_names() const;

  const SlotHealth* health(const std::string& slot) const;
  /// Per-slot call-cost totals (calls, fuel, instructions), accumulated
  /// from the engine's CallStats on every dispatched call — including
  /// faulting ones, whose partial cost still counts against the slot, and
  /// injected failures, which count as zero-cost calls. A quarantined
  /// slot's refused calls are not counted. Null if the slot does not exist.
  const CallCostAcc* cost(const std::string& slot) const;
  /// Lifts quarantine manually (operator intervention).
  Status reset_quarantine(const std::string& slot);

  /// Adjusts a slot's per-call fuel budget (driven by FuelGovernor, §6B).
  Status set_fuel(const std::string& slot, uint64_t fuel);

  /// Direct access for introspection (memory probes in Fig. 5c).
  Plugin* plugin(const std::string& slot);

  // --- Deterministic fault injection (waran::chaos) ------------------------
  // The interceptors let a harness fail or starve individual sandbox
  // crossings on a reproducible schedule, exercising the manager's real
  // containment paths (fault accounting, quarantine, anomaly journal)
  // rather than simulating them from outside. Production embedders never
  // install one; the manager stays chaos-free.

  /// What the call interceptor decided for one crossing.
  struct CallIntercept {
    /// Fail the call with this error before the sandbox is entered. The
    /// error flows through the normal fault-accounting path (kTrap /
    /// kFuelExhausted anomalies, consecutive-fault quarantine).
    std::optional<Error> fail;
    /// Starve the call for real: one-call fuel / deadline overrides passed
    /// to the engine, which then reports genuine exhaustion traps.
    std::optional<uint64_t> fuel;
    std::optional<uint64_t> deadline_ns;
  };
  using CallInterceptor =
      std::function<CallIntercept(const std::string& slot, const std::string& fn)>;
  void set_call_interceptor(CallInterceptor fn) {
    call_interceptor_ = std::move(fn);
  }

  /// Consulted by install/swap before the module is loaded; returning an
  /// error makes the load fail (recorded as a kLoadFailed anomaly, like any
  /// natural decode/validate/instantiate failure).
  using LoadInterceptor = std::function<std::optional<Error>(const std::string& slot)>;
  void set_load_interceptor(LoadInterceptor fn) {
    load_interceptor_ = std::move(fn);
  }

 private:
  struct Slot {
    std::shared_ptr<Plugin> plugin;
    SlotHealth health;
    CallCostAcc cost;
    /// Set when admission analysis ran for the installed plugin.
    std::optional<analysis::AdmissionReport> admission;
    // Registry handles, resolved once at install so the per-call feed is a
    // few relaxed atomic adds (the canonical CallStats -> telemetry path).
    obs::Counter* m_calls = nullptr;
    obs::Counter* m_traps = nullptr;
    obs::Counter* m_fuel_exhausted = nullptr;
    obs::Counter* m_declines = nullptr;
    obs::Counter* m_fuel_used = nullptr;
    obs::Counter* m_instrs = nullptr;
    obs::Histogram* m_wall_ns = nullptr;
  };

  void bind_metrics(const std::string& slot_name, Slot& slot);

  Result<std::shared_ptr<Plugin>> load_checked(const std::string& slot,
                                               std::span<const uint8_t> module_bytes,
                                               const wasm::Linker& extra_host);

  PluginLimits default_limits_;
  std::string domain_ = "plugin";
  std::map<std::string, Slot> slots_;
  CallInterceptor call_interceptor_;
  LoadInterceptor load_interceptor_;
  /// Most recent admission analysis (load_checked fills it; install/swap
  /// copy it into the slot on success, rejected loads leave it here).
  std::optional<analysis::AdmissionReport> last_admission_;
};

}  // namespace waran::plugin
