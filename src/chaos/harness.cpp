#include "chaos/harness.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/tracked_alloc.h"
#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "plugin/manager.h"
#include "plugin/plugin.h"
#include "ran/mac.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/plugin_sources.h"
#include "ric/quota_inter.h"
#include "ric/transport.h"
#include "rt/clock.h"
#include "rt/deployment.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"
#include "wcc/compiler.h"

namespace waran::chaos {

namespace {

// The grower exercises the spec-conformant growth-denial path: a denied
// memory.grow answers -1 and the plugin must carry on, reporting the denial
// through its output instead of trapping.
constexpr char kGrowerSource[] = R"W(
export fn tick() -> i32 {
  var got: i32 = memory_grow(1);
  var denied: i32 = 0;
  if (got < 0) {
    denied = 1;
  }
  store32(64, denied);
  output_write(64, 4);
  return 0;
}
)W";

// Pure-arithmetic workload for the warm-call probe: no ABI imports, so a
// direct Instance::call must not touch the host heap once warm.
constexpr char kProbeSource[] = R"W(
export fn work() -> i32 {
  var i: i32 = 0;
  var acc: i32 = 0;
  while (i < 48) {
    acc = acc + i * 3;
    i = i + 1;
  }
  return acc;
}
)W";

/// Decorator around a slice's real (Wasm) scheduler that injects
/// output-level faults on the plan's schedule: forged grants the host must
/// sanitize, empty allocation lists, and outright errors that force the
/// MAC's host-side fallback.
class ChaosIntraScheduler final : public ran::IntraSliceScheduler {
 public:
  ChaosIntraScheduler(std::unique_ptr<ran::IntraSliceScheduler> inner, FaultPlan& plan,
                      uint32_t slice_id, const std::string& site_prefix = "")
      : inner_(std::move(inner)),
        plan_(plan),
        site_(site_prefix + "slice " + std::to_string(slice_id)),
        name_(std::string("chaos:") + inner_->name()) {}

  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override {
    std::optional<FaultKind> fault = plan_.draw_sched();
    if (!fault) return inner_->schedule(req);
    switch (*fault) {
      case FaultKind::kSchedEmpty:
        plan_.note_applied(FaultKind::kSchedEmpty, site_);
        return codec::SchedResponse{};
      case FaultKind::kSchedError:
        plan_.note_applied(FaultKind::kSchedError, site_);
        return Error::internal("chaos: injected scheduler error");
      default: {
        // Garbage rides on a successful inner decision; if the sandbox
        // crossing itself faulted (a call-site injection won the race) the
        // garbage is not applied and not counted.
        auto resp = inner_->schedule(req);
        if (!resp.ok()) return resp;
        plan_.note_applied(FaultKind::kSchedGarbage, site_);
        codec::SchedResponse out;
        out.allocs.push_back(codec::SchedAlloc{0x1, 1});  // foreign RNTI
        out.allocs.insert(out.allocs.end(), resp->allocs.begin(), resp->allocs.end());
        return out;
      }
    }
  }

  const char* name() const override { return name_.c_str(); }

 private:
  std::unique_ptr<ran::IntraSliceScheduler> inner_;
  FaultPlan& plan_;
  std::string site_;
  std::string name_;
};

struct Mvno {
  uint32_t slice_id;
  const char* name;
  const char* policy;
  double target_bps;
};

constexpr Mvno kMvnos[] = {
    {1, "iot-co", "rr", 4e6},
    {2, "stream-co", "mt", 14e6},
    {3, "fair-co", "pf", 10e6},
};

/// Call-site interceptor drawing from `plan` for the named domain; shared
/// by the single-cell scenario and the per-cell managers of a multi-cell
/// deployment. Only `eligible` slots are touched.
plugin::PluginManager::CallInterceptor make_call_interceptor(
    FaultPlan& plan, std::string domain, std::set<std::string> eligible,
    bool allow_deadline) {
  return [&plan, domain = std::move(domain), eligible = std::move(eligible),
          allow_deadline](const std::string& slot,
                          const std::string&) -> plugin::PluginManager::CallIntercept {
    plugin::PluginManager::CallIntercept out;
    if (!eligible.contains(slot)) return out;
    auto fault = plan.draw_call(domain, slot, allow_deadline);
    if (!fault) return out;
    switch (fault->kind) {
      case FaultKind::kFuelStarve:
        out.fuel = 1;  // first block charge exhausts: real engine trap
        break;
      case FaultKind::kDeadlineOverrun:
        // 1 ns deadline, with a small fuel backstop in case the call
        // retires fewer instructions than the deadline poll stride — either
        // way the engine reports genuine exhaustion. Under virtual time the
        // deadline never expires (the clock is frozen mid-slot), so the
        // backstop is the mechanism that lands the fault.
        out.deadline_ns = 1;
        out.fuel = 24;
        break;
      default:
        out.fail = Error::trap("chaos: injected trap");
        break;
    }
    return out;
  };
}

/// Duplex fault stage drawing from `plan` (one draw per frame in flight).
ric::Duplex::FaultStage make_link_stage(FaultPlan& plan) {
  return [&plan](std::vector<uint8_t>& frame,
                 ric::Duplex::Side) -> ric::Duplex::Fault {
    auto fault = plan.draw_link();
    if (!fault) return {};
    switch (fault->kind) {
      case FaultKind::kLinkCorrupt: {
        // Flip one payload bit (past the 12-byte magic/len/checksum
        // header) so the sandboxed unframe rejects on checksum — never a
        // wild length that could send the plugin reading out of bounds.
        size_t lo = frame.size() > 12 ? 12 : 0;
        size_t off = lo + fault->entropy % (frame.size() - lo);
        frame[off] ^= static_cast<uint8_t>(1u << ((fault->entropy >> 32) % 8));
        return {ric::Duplex::FaultAction::kCorrupt};
      }
      case FaultKind::kLinkDrop:
        return {ric::Duplex::FaultAction::kDrop};
      case FaultKind::kLinkDuplicate:
        return {ric::Duplex::FaultAction::kDuplicate};
      default:
        return {ric::Duplex::FaultAction::kReorder,
                static_cast<uint32_t>(1 + fault->entropy % 3)};
    }
  };
}

/// The zero-alloc warm-call probe (invariant 5), independent of topology.
void run_warm_probe(EpisodeReport& rep,
                    const std::function<void(bool, std::string)>& expect) {
  auto probe_bytes = wcc::compile(kProbeSource);
  auto probe = probe_bytes.ok() ? plugin::Plugin::load(*probe_bytes)
                                : Result<std::unique_ptr<plugin::Plugin>>(
                                      Error::internal("probe compile failed"));
  expect(probe.ok(), "warm-path probe plugin failed to load");
  if (!probe.ok()) return;
  wasm::CallOptions copts;
  copts.fuel = 100'000;
  wasm::CallStats cstats;
  bool ok = true;
  for (int i = 0; i < 4; ++i) {
    ok = ok && (*probe)->instance().call("work", {}, copts, &cstats).ok();
  }
  const uint64_t before = heap_probe::allocations();
  for (int i = 0; i < 64; ++i) {
    ok = ok && (*probe)->instance().call("work", {}, copts, &cstats).ok();
  }
  rep.warm_heap_allocs = heap_probe::allocations() - before;
  expect(ok, "warm-path probe call failed");
  expect(rep.warm_heap_allocs == 0,
         "warm Instance::call touched the heap " +
             std::to_string(rep.warm_heap_allocs) + " time(s)");
}

EpisodeReport run_multicell_episode(const EpisodeOptions& options);

}  // namespace

EpisodeReport run_episode(const EpisodeOptions& options) {
  if (options.cells > 1) return run_multicell_episode(options);

  EpisodeReport rep;
  rep.seed = options.seed;

  // Virtual time for the whole episode: the stack reads a frozen clock that
  // only the round loop advances, so the episode runs flat out and every
  // timestamp (trace, journal) is a pure function of the seed.
  std::optional<rt::VirtualClockGuard> vclock;
  if (options.virtual_time) vclock.emplace(0);

  auto expect = [&rep](bool ok, std::string what) {
    if (!ok) rep.violations.push_back(std::move(what));
  };
  auto tolerate = [&rep](const Status& st) {
    if (!st.ok()) ++rep.contained_errors;
  };

  auto& journal = obs::AnomalyJournal::global();
  journal.set_capacity(1 << 16);
  journal.clear();
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_values();

  FaultPlan plan(options.seed, options.plan);

  // --- Scenario: 3 MVNO slices, gNB agent <-> RIC over one Duplex --------
  // The slot budget is set to one full second: a real slot takes
  // microseconds even under sanitizers, so every kSlotOverrun anomaly in
  // this episode is an injected one.
  ran::MacConfig cfg;
  cfg.slot_us = 1'000'000;
  ran::GnbMac mac(cfg);
  auto quotas_owned = std::make_unique<ric::QuotaTableInterScheduler>();
  ric::QuotaTableInterScheduler* quotas = quotas_owned.get();
  mac.set_inter_scheduler(std::move(quotas_owned));

  plugin::PluginManager mgr;
  mgr.set_domain("mac");

  for (const Mvno& m : kMvnos) {
    auto bytes = sched::plugins::scheduler(m.policy);
    if (!bytes.ok() || !mgr.install(m.name, *bytes).ok()) {
      expect(false, std::string("failed to onboard scheduler plugin ") + m.name);
      return rep;
    }
    ran::SliceConfig slice;
    slice.slice_id = m.slice_id;
    slice.name = m.name;
    slice.target_rate_bps = m.target_bps;
    mac.add_slice(slice, std::make_unique<ChaosIntraScheduler>(
                             std::make_unique<sched::WasmIntraScheduler>(mgr, m.name),
                             plan, m.slice_id));
    quotas->set_quota(m.slice_id, 12);
    for (int u = 0; u < 2; ++u) {
      ran::Channel::FadingParams fading;
      fading.mean_snr_db = 14.0 + 2.5 * u;
      mac.add_ue(m.slice_id, ran::Channel::fading(fading, m.slice_id * 100 + u),
                 ran::TrafficSource::full_buffer());
    }
  }

  auto grower_bytes = wcc::compile(kGrowerSource);
  if (!grower_bytes.ok() || !mgr.install("grower", *grower_bytes).ok()) {
    expect(false, "failed to install grower plugin");
    return rep;
  }

  ric::Duplex link;
  ric::GnbAgent agent(0, mac, quotas, link, ric::Duplex::Side::kA);
  ric::NearRtRic ric(link, ric::Duplex::Side::kB);
  auto comm = ric::plugin_sources::comm_framing();
  auto ctl = ric::plugin_sources::control_dispatch();
  auto sla = ric::plugin_sources::sla_xapp();
  if (!comm.ok() || !ctl.ok() || !sla.ok() || !agent.load_comm_plugin(*comm).ok() ||
      !agent.load_control_plugin(*ctl).ok() || !ric.load_comm_plugin(*comm).ok() ||
      !ric.add_xapp("sla", *sla).ok()) {
    expect(false, "failed to wire the E2 loop");
    return rep;
  }

  // --- Chaos hooks --------------------------------------------------------
  // Call-site injections are restricted to slots whose failures the host
  // contains without secondary effects: the slice schedulers (MAC falls
  // back to host RR), the control dispatcher (frame is rejected) and the
  // xApp (RIC skips it). The comm slots stay clean — failing them would
  // double-count (a comm trap plus the resulting frame rejection) — and so
  // do grower (its fault site is memory.grow) and the probe.
  mgr.set_call_interceptor(make_call_interceptor(
      plan, "mac", {"iot-co", "stream-co", "fair-co"}, /*allow_deadline=*/true));
  agent.plugins().set_call_interceptor(make_call_interceptor(
      plan, agent.plugins().domain(), {"ctl"}, /*allow_deadline=*/false));
  ric.plugins().set_call_interceptor(
      make_call_interceptor(plan, "ric", {"xapp:sla"}, /*allow_deadline=*/false));

  bool fail_next_load = false;
  mgr.set_load_interceptor([&fail_next_load](const std::string&) -> std::optional<Error> {
    if (!fail_next_load) return std::nullopt;
    fail_next_load = false;
    return Error::validation("chaos: injected load failure");
  });

  const uint64_t budget_ns = static_cast<uint64_t>(cfg.slot_us) * 1000;
  mac.set_slot_time_padding([&plan, &mac, budget_ns]() -> uint64_t {
    return plan.draw_slot_overrun(mac.slot()) ? budget_ns + 1'000'000 : 0;
  });

  link.add_fault_stage(make_link_stage(plan));

  const std::array<plugin::PluginManager*, 3> managers = {&mgr, &agent.plugins(),
                                                          &ric.plugins()};

  // --- Episode loop -------------------------------------------------------
  for (uint32_t round = 0; round < options.rounds; ++round) {
    Status st = mac.run_slots(options.slots_per_round);
    if (!st.ok()) {
      expect(false, "mac.run_slots failed (host misconfiguration): " + st.error().message);
      break;
    }
    rep.slots += options.slots_per_round;

    // Growth-denial site: the grower must survive a denied grow gracefully.
    {
      plugin::Plugin* grower = mgr.plugin("grower");
      wasm::Memory* mem = grower != nullptr ? grower->instance().memory() : nullptr;
      if (mem != nullptr && plan.draw_grow_denial()) mem->set_grow_denial_after(0);
      auto r = mgr.call("grower", "tick", {});
      expect(r.ok(), "grower did not survive a denied memory.grow: " +
                         (r.ok() ? std::string() : r.error().message));
      if (mem != nullptr) mem->set_grow_denial_after(std::nullopt);
    }

    // Hot-swap site, rotating over the scheduler slots. A slot mid-storm
    // is skipped: a successful swap clears the consecutive-fault count and
    // would defuse the storm's deterministic quarantine.
    {
      const Mvno& m = kMvnos[round % 3];
      if (!plan.storm_active("mac", m.name)) {
        bool fail = plan.draw_load_failure(m.name);
        fail_next_load = fail;
        auto bytes = sched::plugins::scheduler(m.policy);
        if (bytes.ok()) {
          Status sw = mgr.swap(m.name, *bytes);
          expect(sw.ok() != fail, fail ? "injected load failure did not fail the swap"
                                       : "clean hot swap failed: " + sw.error().message);
          expect(mgr.plugin(m.name) != nullptr, "swap left the slot without a plugin");
        }
        fail_next_load = false;
      }
    }

    tolerate(agent.send_indication());
    tolerate(ric.poll());
    tolerate(agent.poll());

    // Under virtual time the round's slots all executed at one frozen
    // instant; move the clock to the next report boundary.
    if (options.virtual_time) {
      rt::Clock::global().advance_ns(static_cast<uint64_t>(options.slots_per_round) *
                                     cfg.slot_us * 1000);
    }

    // Lift quarantines (operator intervention) so every round starts with
    // live slots; only latched slots are touched, so in-flight fault
    // sequences keep their consecutive counts.
    for (plugin::PluginManager* m : managers) {
      for (const std::string& s : m->slot_names()) {
        const plugin::SlotHealth* h = m->health(s);
        if (h != nullptr && h->quarantined) (void)m->reset_quarantine(s);
      }
    }
  }

  // --- Drain: stop injecting, land everything in flight -------------------
  plan.set_active(false);
  link.flush_delayed();
  tolerate(ric.poll());
  tolerate(agent.poll());
  mac.set_slot_time_padding(nullptr);

  // --- Warm-call probe ----------------------------------------------------
  if (options.warm_path_probe) run_warm_probe(rep, expect);

  // --- Invariants ---------------------------------------------------------
  auto snapshot = journal.snapshot();
  rep.anomalies = journal.total();
  rep.injections = plan.total();
  for (size_t k = 0; k < kFaultKindCount; ++k) {
    rep.injected_by_kind[k] = plan.count(static_cast<FaultKind>(k));
  }
  rep.injection_log = plan.log();

  expect(snapshot.size() == journal.total(), "anomaly journal overflowed its capacity");

  std::map<obs::AnomalyKind, uint64_t> by_kind;
  uint64_t mac_sanitized = 0;
  for (const auto& r : snapshot) {
    ++by_kind[r.kind];
    if (r.kind == obs::AnomalyKind::kSanitized && r.domain == "mac") ++mac_sanitized;
  }
  auto eq = [&expect](uint64_t got, uint64_t want, const char* what) {
    expect(got == want, std::string(what) + ": got " + std::to_string(got) + ", want " +
                            std::to_string(want));
  };

  // 1:1 fault -> anomaly accounting, kind by kind.
  eq(by_kind[obs::AnomalyKind::kTrap], plan.count(FaultKind::kForceTrap),
     "kTrap anomalies vs injected traps");
  eq(by_kind[obs::AnomalyKind::kFuelExhausted],
     plan.count(FaultKind::kFuelStarve) + plan.count(FaultKind::kDeadlineOverrun),
     "kFuelExhausted anomalies vs injected starvations");
  eq(by_kind[obs::AnomalyKind::kQuarantine], plan.count(FaultKind::kQuarantineStorm),
     "kQuarantine anomalies vs completed storms");
  eq(by_kind[obs::AnomalyKind::kLoadFailed], plan.count(FaultKind::kLoadFailure),
     "kLoadFailed anomalies vs injected load failures");
  eq(by_kind[obs::AnomalyKind::kFrameRejected], plan.count(FaultKind::kLinkCorrupt),
     "kFrameRejected anomalies vs corrupted frames");
  eq(mac_sanitized, plan.count(FaultKind::kSchedGarbage),
     "MAC kSanitized anomalies vs injected garbage responses");
  eq(by_kind[obs::AnomalyKind::kSanitized], mac_sanitized,
     "kSanitized anomalies outside the MAC (xApp output must stay clean)");
  eq(by_kind[obs::AnomalyKind::kSlotOverrun], plan.count(FaultKind::kSlotOverrun),
     "kSlotOverrun anomalies vs injected overruns");
  eq(by_kind[obs::AnomalyKind::kDecline], 0, "unexpected kDecline anomalies");
  eq(by_kind[obs::AnomalyKind::kOther], 0, "unexpected kOther anomalies");
  // The single-cell harness runs no SLO engine; any breach entry is a bug.
  eq(by_kind[obs::AnomalyKind::kSloBreach], 0, "unexpected kSloBreach anomalies");

  // Spec-conformant growth denial: denied exactly as scheduled, no anomaly.
  {
    plugin::Plugin* grower = mgr.plugin("grower");
    wasm::Memory* mem = grower != nullptr ? grower->instance().memory() : nullptr;
    eq(mem != nullptr ? mem->denied_grows() : 0, plan.count(FaultKind::kGrowDenial),
       "denied grows vs scheduled denials");
  }

  // Link conservation: every frame is delivered, dropped, or still held —
  // and after the drain nothing is held or pending.
  eq(link.frames_sent() + link.frames_duplicated(),
     link.frames_delivered() + link.frames_dropped(), "link frame conservation");
  eq(link.delayed_in_flight(), 0, "frames still held for reordering after drain");
  eq(link.pending(ric::Duplex::Side::kA) + link.pending(ric::Duplex::Side::kB), 0,
     "frames still queued after drain");
  eq(link.frames_corrupted(), plan.count(FaultKind::kLinkCorrupt),
     "link corruption counter vs plan");
  eq(link.frames_dropped(), plan.count(FaultKind::kLinkDrop), "link drop counter vs plan");
  eq(link.frames_duplicated(), plan.count(FaultKind::kLinkDuplicate),
     "link duplicate counter vs plan");
  eq(link.frames_reordered(), plan.count(FaultKind::kLinkReorder),
     "link reorder counter vs plan");

  // PRB conservation: grants never exceed carrier capacity.
  {
    uint64_t granted = 0;
    for (const Mvno& m : kMvnos) {
      std::string sid = std::to_string(m.slice_id);
      granted += reg.counter("waran_mac_prb_granted_total",
                             {{"cell", "0"}, {"slice", sid}})
                     .value();
    }
    expect(granted <= static_cast<uint64_t>(cfg.n_prbs) * rep.slots,
           "PRB conservation violated: " + std::to_string(granted) + " granted over " +
               std::to_string(rep.slots) + " slots of " + std::to_string(cfg.n_prbs));
  }
  eq(reg.counter("waran_mac_slots_total").value(), rep.slots, "MAC slot counter");
  eq(reg.counter("waran_mac_slot_overrun_total").value(),
     plan.count(FaultKind::kSlotOverrun), "MAC slot-overrun counter vs plan");

  // Cross-layer accounting balance: the slot's own record (CallCostAcc,
  // SlotHealth) and the metrics registry must agree call for call, fault
  // for fault.
  uint64_t traps_sum = 0;
  uint64_t fuel_sum = 0;
  for (plugin::PluginManager* m : managers) {
    for (const std::string& s : m->slot_names()) {
      const plugin::SlotHealth* h = m->health(s);
      const CallCostAcc* c = m->cost(s);
      if (h == nullptr || c == nullptr) continue;
      std::string where = m->domain() + "/" + s;
      eq(reg.counter("waran_plugin_calls_total", {{"domain", m->domain()}, {"slot", s}})
             .value(),
         c->calls(), ("calls_total counter vs slot calls for " + where).c_str());
      eq(reg.counter("waran_plugin_traps_total", {{"domain", m->domain()}, {"slot", s}})
             .value(),
         h->traps, ("traps_total counter vs health for " + where).c_str());
      eq(h->faults, h->traps + h->fuel_exhaustions,
         ("fault breakdown for " + where).c_str());
      traps_sum += h->traps;
      fuel_sum += h->fuel_exhaustions;
    }
  }
  // With only benign plugins in the scenario, every sandbox fault is an
  // injected one.
  eq(traps_sum, plan.count(FaultKind::kForceTrap), "summed slot traps vs injected traps");
  eq(fuel_sum, plan.count(FaultKind::kFuelStarve) + plan.count(FaultKind::kDeadlineOverrun),
     "summed fuel exhaustions vs injected starvations");

  rep.passed = rep.violations.empty();
  return rep;
}

namespace {

// Multi-cell episode: the same invariant suite run against a threaded
// rt::GnbDeployment — N cells on N worker threads, one shared RIC — with
// one independent FaultPlan per cell. Scope is the cell-local fault
// surface (scheduler output/call faults, slot overruns, per-link E2
// faults); the lifecycle sites (grower, hot swap, ctl/xApp call faults)
// stay with the single-cell episode, which exercises them without the
// cross-cell accounting ambiguity.
EpisodeReport run_multicell_episode(const EpisodeOptions& options) {
  EpisodeReport rep;
  rep.seed = options.seed;

  auto expect = [&rep](bool ok, std::string what) {
    if (!ok) rep.violations.push_back(std::move(what));
  };

  auto& journal = obs::AnomalyJournal::global();
  journal.set_capacity(1 << 16);
  journal.clear();
  auto& reg = obs::MetricsRegistry::global();
  reg.reset_values();

  // One plan per cell, derived deterministically from the master seed, so
  // each cell's fault schedule is independent and the whole episode still
  // replays from `--seed` alone.
  std::vector<std::unique_ptr<FaultPlan>> plans;
  for (uint32_t i = 0; i < options.cells; ++i) {
    plans.push_back(std::make_unique<FaultPlan>(
        options.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)), options.plan));
  }

  rt::DeploymentConfig dc;
  dc.cells = options.cells;
  dc.seed = options.seed;
  dc.threaded = true;
  dc.virtual_time = options.virtual_time;
  dc.report_period_slots = options.slots_per_round;
  // Slot budget of one full second (the single-cell harness convention):
  // every kSlotOverrun anomaly in the episode is an injected one.
  dc.mac.slot_us = 1'000'000;
  // Fleet telemetry plane under fire: per-cell trace rings feed the flight
  // recorder, and the SLO engine evaluates one window per report round.
  dc.trace_capacity = 1024;
  dc.slo_window_slots = options.slots_per_round;
  dc.decorate_scheduler = [&plans](std::unique_ptr<ran::IntraSliceScheduler> inner,
                                   uint32_t cell, uint32_t slice_id) {
    return std::make_unique<ChaosIntraScheduler>(std::move(inner), *plans[cell],
                                                 slice_id,
                                                 "cell" + std::to_string(cell) + " ");
  };
  rt::GnbDeployment dep(dc);
  if (!dep.status().ok()) {
    expect(false, "deployment construction failed: " + dep.status().error().message);
    return rep;
  }

  // Flight recorder: the bundle's replay command must reproduce this exact
  // episode, so the context carries the episode shape, not just the seed.
  obs::FlightContext fctx = dep.flight_context();
  fctx.rounds = options.rounds;
  fctx.slots_per_round = options.slots_per_round;
  fctx.scenario = "chaos_episode";
  dep.set_flight_context(fctx);
  dep.set_breach_hook([&rep, &dep](const obs::HealthReport& health) {
    rep.slo_breaches += health.breaches;
    if (rep.flight_bundle.empty()) {
      rep.flight_bundle = dep.capture_flight_bundle("slo_breach");
    }
  });

  // --- Chaos hooks, one set per cell --------------------------------------
  // Each hook draws from its own cell's plan only; the barrier-stepped
  // schedule means a plan is touched either by its cell's worker (step
  // phase) or by the coordinator (RIC control sends while the workers are
  // parked), never both at once.
  const uint64_t budget_ns = static_cast<uint64_t>(dc.mac.slot_us) * 1000;
  std::set<std::string> slice_slots;
  for (const auto& s : dc.slices) slice_slots.insert(s.name);
  for (uint32_t i = 0; i < options.cells; ++i) {
    FaultPlan& plan = *plans[i];
    dep.sched_plugins(i).set_call_interceptor(make_call_interceptor(
        plan, "mac" + std::to_string(i), slice_slots, /*allow_deadline=*/true));
    ran::GnbMac& mac = dep.mac(i);
    mac.set_slot_time_padding([&plan, &mac, budget_ns]() -> uint64_t {
      return plan.draw_slot_overrun(mac.slot()) ? budget_ns + 1'000'000 : 0;
    });
    dep.link(i).add_fault_stage(make_link_stage(plan));
  }

  // --- Episode loop: barrier-stepped rounds; quarantines are lifted
  // --- between rounds while every worker is parked at the idle barrier.
  for (uint32_t round = 0; round < options.rounds; ++round) {
    Status st = dep.run_slots(options.slots_per_round);
    if (!st.ok()) {
      expect(false, "deployment.run_slots failed: " + st.error().message);
      break;
    }
    for (uint32_t i = 0; i < options.cells; ++i) {
      plugin::PluginManager& m = dep.sched_plugins(i);
      for (const std::string& s : m.slot_names()) {
        const plugin::SlotHealth* h = m.health(s);
        if (h != nullptr && h->quarantined) (void)m.reset_quarantine(s);
      }
    }
  }
  const uint64_t per_cell_slots = dep.slots_run();
  rep.slots = per_cell_slots * options.cells;
  rep.slo_breach_windows = dep.slo_breach_windows();

  // --- Drain: stop injecting, land everything in flight -------------------
  for (auto& p : plans) p->set_active(false);
  for (uint32_t i = 0; i < options.cells; ++i) dep.link(i).flush_delayed();
  Status rs = dep.ric().poll();
  if (!rs.ok()) ++rep.contained_errors;
  for (uint32_t i = 0; i < options.cells; ++i) {
    Status ps = dep.agent(i).poll();
    if (!ps.ok()) ++rep.contained_errors;
    dep.mac(i).set_slot_time_padding(nullptr);
  }

  // --- Warm-call probe ----------------------------------------------------
  if (options.warm_path_probe) run_warm_probe(rep, expect);

  // --- Invariants ----------------------------------------------------------
  auto snapshot = journal.snapshot();
  rep.anomalies = journal.total();
  auto sum_count = [&plans](FaultKind k) {
    uint64_t n = 0;
    for (const auto& p : plans) n += p->count(k);
    return n;
  };
  for (const auto& p : plans) {
    rep.injections += p->total();
    rep.injection_log.insert(rep.injection_log.end(), p->log().begin(),
                             p->log().end());
  }
  for (size_t k = 0; k < kFaultKindCount; ++k) {
    rep.injected_by_kind[k] = sum_count(static_cast<FaultKind>(k));
  }

  expect(snapshot.size() == journal.total(), "anomaly journal overflowed its capacity");

  std::map<obs::AnomalyKind, uint64_t> by_kind;
  std::map<std::string, uint64_t> sanitized_by_domain;
  for (const auto& r : snapshot) {
    ++by_kind[r.kind];
    if (r.kind == obs::AnomalyKind::kSanitized) ++sanitized_by_domain[r.domain];
  }
  auto eq = [&expect](uint64_t got, uint64_t want, const std::string& what) {
    expect(got == want, what + ": got " + std::to_string(got) + ", want " +
                            std::to_string(want));
  };

  // 1:1 fault -> anomaly accounting, kind by kind, summed across cells.
  eq(by_kind[obs::AnomalyKind::kTrap], sum_count(FaultKind::kForceTrap),
     "kTrap anomalies vs injected traps");
  eq(by_kind[obs::AnomalyKind::kFuelExhausted],
     sum_count(FaultKind::kFuelStarve) + sum_count(FaultKind::kDeadlineOverrun),
     "kFuelExhausted anomalies vs injected starvations");
  eq(by_kind[obs::AnomalyKind::kQuarantine], sum_count(FaultKind::kQuarantineStorm),
     "kQuarantine anomalies vs completed storms");
  eq(by_kind[obs::AnomalyKind::kSlotOverrun], sum_count(FaultKind::kSlotOverrun),
     "kSlotOverrun anomalies vs injected overruns");
  eq(by_kind[obs::AnomalyKind::kFrameRejected], sum_count(FaultKind::kLinkCorrupt),
     "kFrameRejected anomalies vs corrupted frames");
  eq(by_kind[obs::AnomalyKind::kSanitized], sum_count(FaultKind::kSchedGarbage),
     "kSanitized anomalies vs injected garbage responses");
  eq(by_kind[obs::AnomalyKind::kLoadFailed], 0, "unexpected kLoadFailed anomalies");
  eq(by_kind[obs::AnomalyKind::kDecline], 0, "unexpected kDecline anomalies");
  eq(by_kind[obs::AnomalyKind::kOther], 0, "unexpected kOther anomalies");
  // SLO breach accounting is exact: every breached verdict the engine
  // produced landed as one kSloBreach journal entry, and vice versa.
  eq(by_kind[obs::AnomalyKind::kSloBreach], rep.slo_breaches,
     "kSloBreach anomalies vs breached SLO verdicts");
  expect(rep.slo_breaches == 0 || !rep.flight_bundle.empty(),
         "SLO breach occurred but no flight bundle was captured");

  // Per-cell attribution: each cell's sanitizations land in its own MAC
  // domain, so cross-thread accounting never smears between shards.
  for (uint32_t i = 0; i < options.cells; ++i) {
    eq(sanitized_by_domain["mac" + std::to_string(i)],
       plans[i]->count(FaultKind::kSchedGarbage),
       "cell " + std::to_string(i) + " kSanitized anomalies vs its plan");
  }

  // Per-link conservation and fault accounting.
  for (uint32_t i = 0; i < options.cells; ++i) {
    ric::Duplex& link = dep.link(i);
    const std::string ci = "cell " + std::to_string(i) + " ";
    eq(link.frames_corrupted(), plans[i]->count(FaultKind::kLinkCorrupt),
       ci + "link corruption counter vs plan");
    eq(link.frames_dropped(), plans[i]->count(FaultKind::kLinkDrop),
       ci + "link drop counter vs plan");
    eq(link.frames_duplicated(), plans[i]->count(FaultKind::kLinkDuplicate),
       ci + "link duplicate counter vs plan");
    eq(link.frames_reordered(), plans[i]->count(FaultKind::kLinkReorder),
       ci + "link reorder counter vs plan");
    eq(link.frames_sent() + link.frames_duplicated(),
       link.frames_delivered() + link.frames_dropped(),
       ci + "link frame conservation");
    eq(link.delayed_in_flight(), 0, ci + "frames still held after drain");
    eq(link.pending(ric::Duplex::Side::kA) + link.pending(ric::Duplex::Side::kB), 0,
       ci + "frames still queued after drain");
  }

  // PRB conservation per cell: grants never exceed carrier capacity.
  for (uint32_t i = 0; i < options.cells; ++i) {
    uint64_t granted = 0;
    std::string cell_label = std::to_string(i);
    for (const auto& s : dc.slices) {
      std::string sid = std::to_string(s.slice_id);
      granted += reg.counter("waran_mac_prb_granted_total",
                             {{"cell", cell_label}, {"slice", sid}})
                     .value();
    }
    expect(granted <= static_cast<uint64_t>(dc.mac.n_prbs) * per_cell_slots,
           "cell " + cell_label + " PRB conservation violated: " +
               std::to_string(granted) + " granted over " +
               std::to_string(per_cell_slots) + " slots of " +
               std::to_string(dc.mac.n_prbs));
  }
  eq(reg.counter("waran_mac_slots_total").value(), rep.slots,
     "MAC slot counter across cells");
  eq(reg.counter("waran_mac_slot_overrun_total").value(),
     sum_count(FaultKind::kSlotOverrun), "MAC slot-overrun counter vs plans");

  // Cross-layer accounting balance across every shard's manager, the
  // agents and the shared RIC.
  std::vector<plugin::PluginManager*> managers;
  for (uint32_t i = 0; i < options.cells; ++i) {
    managers.push_back(&dep.sched_plugins(i));
    managers.push_back(&dep.agent(i).plugins());
  }
  managers.push_back(&dep.ric().plugins());
  uint64_t traps_sum = 0;
  uint64_t fuel_sum = 0;
  for (plugin::PluginManager* m : managers) {
    for (const std::string& s : m->slot_names()) {
      const plugin::SlotHealth* h = m->health(s);
      const CallCostAcc* c = m->cost(s);
      if (h == nullptr || c == nullptr) continue;
      std::string where = m->domain() + "/" + s;
      eq(reg.counter("waran_plugin_calls_total", {{"domain", m->domain()}, {"slot", s}})
             .value(),
         c->calls(), "calls_total counter vs slot calls for " + where);
      eq(h->faults, h->traps + h->fuel_exhaustions, "fault breakdown for " + where);
      traps_sum += h->traps;
      fuel_sum += h->fuel_exhaustions;
    }
  }
  eq(traps_sum, sum_count(FaultKind::kForceTrap),
     "summed slot traps vs injected traps");
  eq(fuel_sum, sum_count(FaultKind::kFuelStarve) + sum_count(FaultKind::kDeadlineOverrun),
     "summed fuel exhaustions vs injected starvations");

  rep.passed = rep.violations.empty();
  return rep;
}

}  // namespace

CampaignReport run_campaign(uint64_t base_seed, uint32_t episodes,
                            const EpisodeOptions& base) {
  CampaignReport camp;
  for (uint32_t i = 0; i < episodes; ++i) {
    EpisodeOptions o = base;
    o.seed = base_seed + i;
    EpisodeReport rep = run_episode(o);
    ++camp.episodes;
    camp.injections += rep.injections;
    camp.anomalies += rep.anomalies;
    for (size_t k = 0; k < kFaultKindCount; ++k) {
      camp.injected_by_kind[k] += rep.injected_by_kind[k];
    }
    if (!rep.passed) {
      ++camp.failures;
      camp.failed.push_back(std::move(rep));
    }
  }
  return camp;
}

std::string summarize(const EpisodeReport& report) {
  std::string s = "seed " + std::to_string(report.seed) + ": " +
                  std::to_string(report.slots) + " slots, " +
                  std::to_string(report.injections) + " injected, " +
                  std::to_string(report.anomalies) + " anomalies, " +
                  std::to_string(report.contained_errors) + " contained -> " +
                  (report.passed ? "OK" : "FAIL");
  for (const auto& v : report.violations) s += "\n  violation: " + v;
  return s;
}

}  // namespace waran::chaos
