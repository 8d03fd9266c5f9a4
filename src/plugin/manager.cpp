#include "plugin/manager.h"

#include "common/log.h"
#include "obs/anomaly.h"
#include "obs/trace.h"

namespace waran::plugin {

void PluginManager::bind_metrics(const std::string& slot_name, Slot& slot) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Labels labels = {{"domain", domain_}, {"slot", slot_name}};
  slot.m_calls = &reg.counter("waran_plugin_calls_total", labels);
  slot.m_traps = &reg.counter("waran_plugin_traps_total", labels);
  slot.m_fuel_exhausted = &reg.counter("waran_plugin_fuel_exhausted_total", labels);
  slot.m_declines = &reg.counter("waran_plugin_declines_total", labels);
  slot.m_fuel_used = &reg.counter("waran_plugin_fuel_used_total", labels);
  slot.m_instrs = &reg.counter("waran_plugin_instructions_total", labels);
  slot.m_wall_ns = &reg.histogram("waran_plugin_wall_ns", labels);
}

// Shared install/swap front half: consult the chaos load interceptor, then
// decode/validate/instantiate. Any failure — injected or natural — is a
// containment event worth journaling: a broken upload was refused before it
// could touch a live slot.
Result<std::shared_ptr<Plugin>> PluginManager::load_checked(
    const std::string& slot, std::span<const uint8_t> module_bytes,
    const wasm::Linker& extra_host) {
  if (load_interceptor_) {
    if (std::optional<Error> err = load_interceptor_(slot)) {
      obs::AnomalyJournal::global().record(obs::AnomalyKind::kLoadFailed, domain_,
                                           slot, err->message);
      return *err;
    }
  }
  auto loaded = Plugin::load(module_bytes, extra_host, default_limits_);
  if (!loaded.ok()) {
    obs::AnomalyJournal::global().record(obs::AnomalyKind::kLoadFailed, domain_,
                                         slot, loaded.error().message);
    return loaded.error();
  }
  auto plugin = std::shared_ptr<Plugin>(std::move(*loaded));
  if (default_limits_.admission == analysis::AdmissionMode::kOff) {
    last_admission_.reset();
    return plugin;
  }
  // Admission-time static analysis: verify the translated streams and check
  // every export's static fuel/frame bounds against the slot budget. The
  // module is fully built but has never run — a rejection here is exactly
  // "refused before first call".
  wasm::Instance& inst = plugin->instance();
  analysis::AdmissionLimits budget;
  budget.fuel_per_call = default_limits_.fuel_per_call;
  budget.max_call_depth = inst.max_call_depth();
  last_admission_ = analysis::admit(inst.module(), *inst.translation(), budget);
  if (!last_admission_->admitted) {
    const std::string reason = last_admission_->reject_reason();
    if (default_limits_.admission == analysis::AdmissionMode::kEnforce) {
      obs::AnomalyJournal::global().record(obs::AnomalyKind::kAdmissionReject,
                                           domain_, slot, reason);
      obs::MetricsRegistry::global()
          .counter("waran_plugin_admission_rejects_total",
                   {{"domain", domain_}, {"slot", slot}})
          .add();
      WARAN_LOG(kWarn, "plugin",
                "admission rejected slot '" << slot << "': " << reason);
      return Error::limit_exceeded("admission rejected: " + reason);
    }
    WARAN_LOG(kWarn, "plugin", "admission would reject slot '"
                                   << slot << "' (warn mode): " << reason);
  }
  return plugin;
}

Status PluginManager::install(const std::string& slot,
                              std::span<const uint8_t> module_bytes,
                              const wasm::Linker& extra_host) {
  if (slots_.contains(slot)) {
    return Error::state("slot already exists: " + slot + " (use swap)");
  }
  WARAN_TRY(p, load_checked(slot, module_bytes, extra_host));
  Slot s;
  s.plugin = std::move(p);
  s.admission = last_admission_;
  bind_metrics(slot, s);
  slots_.emplace(slot, std::move(s));
  WARAN_LOG(kInfo, "plugin", "installed slot '" << slot << "'");
  return {};
}

Status PluginManager::swap(const std::string& slot,
                           std::span<const uint8_t> module_bytes,
                           const wasm::Linker& extra_host) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return Error::not_found("no such slot: " + slot);
  // Build the replacement completely before touching the live slot.
  WARAN_TRY(p, load_checked(slot, module_bytes, extra_host));
  it->second.plugin = std::move(p);
  it->second.admission = last_admission_;
  it->second.health.quarantined = false;
  it->second.health.consecutive_faults = 0;
  ++it->second.health.swaps;
  WARAN_LOG(kInfo, "plugin", "hot-swapped slot '" << slot << "'");
  return {};
}

Status PluginManager::remove(const std::string& slot) {
  if (slots_.erase(slot) == 0) return Error::not_found("no such slot: " + slot);
  return {};
}

Result<std::vector<uint8_t>> PluginManager::call(const std::string& slot,
                                                 const std::string& fn,
                                                 std::span<const uint8_t> input) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return Error::not_found("no such slot: " + slot);
  Slot& s = it->second;
  if (s.health.quarantined) {
    return Error::state("slot '" + slot + "' is quarantined after repeated faults");
  }
  obs::ObsSpan span(obs::TraceCat::kPlugin, slot);
  s.m_calls->add();

  CallIntercept intercept;
  if (call_interceptor_) intercept = call_interceptor_(slot, fn);

  Result<std::vector<uint8_t>> result = Error::internal("uninitialized");
  if (intercept.fail) {
    // Injected failure: the sandbox is never entered, so the crossing costs
    // nothing — but it still counts as a call, so cost.calls() and
    // calls_total agree.
    result = *intercept.fail;
    s.cost.add(0, 0);
    s.m_wall_ns->add(0);
  } else {
    CallOverrides overrides;
    overrides.fuel = intercept.fuel;
    overrides.deadline_ns = intercept.deadline_ns;
    result = s.plugin->call(fn, input, overrides);
    // Canonical telemetry path: every sandbox crossing feeds the engine's
    // CallStats into the slot's fixed-size totals (CallCostAcc) and the
    // metrics registry (counters plus the wall-time histogram) — including
    // faulting calls, whose partial cost still counts.
    const wasm::CallStats& cs = s.plugin->last_call_stats();
    s.cost.add(cs.fuel_used, cs.instrs_retired);
    s.m_fuel_used->add(cs.fuel_used);
    s.m_instrs->add(cs.instrs_retired);
    s.m_wall_ns->add(cs.wall_ns);
  }
  if (!result.ok()) {
    if (result.error().code == Error::Code::kState) {
      // Deliberate rejection: legitimate behaviour (a comm plugin refusing
      // a corrupt frame must not get itself quarantined).
      ++s.health.declines;
      s.m_declines->add();
      s.health.last_error = result.error().message;
      return result.error();
    }
    ++s.health.faults;
    ++s.health.consecutive_faults;
    s.health.last_error = result.error().message;
    if (result.error().code == Error::Code::kFuelExhausted) {
      // Covers both fuel-budget and wall-clock-deadline overruns (the
      // engine reports deadline misses as fuel exhaustion by design).
      ++s.health.fuel_exhaustions;
      s.m_fuel_exhausted->add();
      obs::AnomalyJournal::global().record(obs::AnomalyKind::kFuelExhausted,
                                           domain_, slot, result.error().message);
    } else {
      ++s.health.traps;
      s.m_traps->add();
      obs::AnomalyJournal::global().record(obs::AnomalyKind::kTrap, domain_, slot,
                                           result.error().message);
    }
    if (s.health.consecutive_faults >= s.plugin->limits().quarantine_after_faults) {
      s.health.quarantined = true;
      obs::AnomalyJournal::global().record(obs::AnomalyKind::kQuarantine, domain_,
                                           slot, s.health.last_error);
      WARAN_LOG(kWarn, "plugin",
                "slot '" << slot << "' quarantined after "
                         << s.health.consecutive_faults
                         << " consecutive faults: " << s.health.last_error);
    }
    return result.error();
  }
  s.health.consecutive_faults = 0;
  return result;
}

std::vector<std::string> PluginManager::slot_names() const {
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, _] : slots_) names.push_back(name);
  return names;
}

const SlotHealth* PluginManager::health(const std::string& slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second.health;
}

const analysis::AdmissionReport* PluginManager::admission_report(
    const std::string& slot) const {
  auto it = slots_.find(slot);
  if (it == slots_.end() || !it->second.admission) return nullptr;
  return &*it->second.admission;
}

const CallCostAcc* PluginManager::cost(const std::string& slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : &it->second.cost;
}

Status PluginManager::reset_quarantine(const std::string& slot) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return Error::not_found("no such slot: " + slot);
  it->second.health.quarantined = false;
  it->second.health.consecutive_faults = 0;
  return {};
}

Status PluginManager::set_fuel(const std::string& slot, uint64_t fuel) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return Error::not_found("no such slot: " + slot);
  it->second.plugin->set_fuel_per_call(fuel);
  return {};
}

Plugin* PluginManager::plugin(const std::string& slot) {
  auto it = slots_.find(slot);
  return it == slots_.end() ? nullptr : it->second.plugin.get();
}

}  // namespace waran::plugin
