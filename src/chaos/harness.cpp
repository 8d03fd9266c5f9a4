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
#include "ric/transport.h"
#include "rt/deployment.h"
#include "sched/plugins.h"
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
                      uint32_t cell, uint32_t slice_id)
      : inner_(std::move(inner)),
        plan_(plan),
        site_("cell" + std::to_string(cell) + " slice " + std::to_string(slice_id)),
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

/// Call-site interceptor drawing from `plan` for the named domain. Only
/// `eligible` slots are touched.
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

/// The zero-alloc warm-call probe (invariant 5 in harness.h).
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

}  // namespace

EpisodeReport run_episode(const EpisodeOptions& options) {
  EpisodeReport rep;
  rep.seed = options.seed;

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

  // One plan per cell, derived deterministically from the master seed, so
  // each cell's fault schedule is independent and the whole episode still
  // replays from the seed alone. The last plan, seeded with the master seed
  // itself, belongs to the coordinator and drives the shared RIC's xApp.
  const uint32_t cells = std::max<uint32_t>(options.cells, 1);
  std::vector<std::unique_ptr<FaultPlan>> plans;
  for (uint32_t i = 0; i < cells; ++i) {
    plans.push_back(std::make_unique<FaultPlan>(
        options.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)), options.plan));
  }
  plans.push_back(std::make_unique<FaultPlan>(options.seed, options.plan));
  FaultPlan& ric_plan = *plans.back();

  // --- Scenario: N cells on N worker threads, one shared RIC -------------
  rt::DeploymentConfig dc;
  dc.cells = cells;
  dc.seed = options.seed;
  dc.threaded = true;
  dc.virtual_time = options.virtual_time;
  dc.report_period_slots = options.slots_per_round;
  // The slot budget is one full second: a real slot takes microseconds even
  // under sanitizers, so every kSlotOverrun anomaly is an injected one.
  dc.mac.slot_us = 1'000'000;
  // Fleet telemetry plane under fire: per-cell trace rings feed the flight
  // recorder, and the SLO engine evaluates one window per report round.
  dc.trace_capacity = 1024;
  dc.slo_window_slots = options.slots_per_round;
  dc.decorate_scheduler = [&plans](std::unique_ptr<ran::IntraSliceScheduler> inner,
                                   uint32_t cell, uint32_t slice_id) {
    return std::make_unique<ChaosIntraScheduler>(std::move(inner), *plans[cell], cell,
                                                 slice_id);
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
  // Call-site injections are restricted to slots whose failures the host
  // contains without secondary effects: the slice schedulers (the MAC falls
  // back to host RR), each agent's control dispatcher (the frame is
  // rejected) and the xApp (the RIC skips it). The comm slots stay clean —
  // failing them would double-count (a comm trap plus the resulting frame
  // rejection) — and so does the grower (its fault site is memory.grow).
  //
  // Each hook draws from its own cell's plan only; the barrier-stepped
  // schedule means a plan is touched either by its cell's worker (step
  // phase) or by the coordinator (RIC control sends, lifecycle sites) while
  // the workers are parked, never both at once.
  auto grower_bytes = wcc::compile(kGrowerSource);
  if (!grower_bytes.ok()) {
    expect(false, "failed to compile grower plugin");
    return rep;
  }
  std::set<std::string> slice_slots;
  for (const rt::SliceSpec& s : dc.slices) slice_slots.insert(s.name);
  const uint64_t budget_ns = static_cast<uint64_t>(dc.mac.slot_us) * 1000;
  std::vector<plugin::PluginManager*> managers;
  for (uint32_t i = 0; i < cells; ++i) {
    FaultPlan& plan = *plans[i];
    plugin::PluginManager& mgr = dep.sched_plugins(i);
    if (!mgr.install("grower", *grower_bytes).ok()) {
      expect(false, "failed to install grower plugin");
      return rep;
    }
    mgr.set_call_interceptor(
        make_call_interceptor(plan, mgr.domain(), slice_slots, /*allow_deadline=*/true));
    mgr.set_load_interceptor(
        [&plan, domain = mgr.domain()](const std::string& slot) -> std::optional<Error> {
          if (!plan.draw_load_failure(domain + "/" + slot)) return std::nullopt;
          return Error::validation("chaos: injected load failure");
        });
    plugin::PluginManager& agent_mgr = dep.agent(i).plugins();
    agent_mgr.set_call_interceptor(
        make_call_interceptor(plan, agent_mgr.domain(), {"ctl"},
                              /*allow_deadline=*/false));
    ran::GnbMac& mac = dep.mac(i);
    mac.set_slot_time_padding([&plan, &mac, budget_ns]() -> uint64_t {
      return plan.draw_slot_overrun(mac.slot()) ? budget_ns + 1'000'000 : 0;
    });
    dep.link(i).add_fault_stage(make_link_stage(plan));
    managers.push_back(&mgr);
    managers.push_back(&agent_mgr);
  }
  dep.ric().plugins().set_call_interceptor(
      make_call_interceptor(ric_plan, "ric", {"xapp:sla"}, /*allow_deadline=*/false));
  managers.push_back(&dep.ric().plugins());

  // --- Episode loop: barrier-stepped rounds, then the lifecycle sites ----
  // --- per cell while every worker is parked at the idle barrier.
  for (uint32_t round = 0; round < options.rounds; ++round) {
    Status st = dep.run_slots(options.slots_per_round);
    if (!st.ok()) {
      expect(false, "deployment.run_slots failed: " + st.error().message);
      break;
    }
    const rt::SliceSpec& rotated = dc.slices[round % dc.slices.size()];
    for (uint32_t i = 0; i < cells; ++i) {
      FaultPlan& plan = *plans[i];
      plugin::PluginManager& mgr = dep.sched_plugins(i);
      const std::string cell = "cell " + std::to_string(i) + ": ";

      // Growth-denial site: the grower must survive a denied grow gracefully.
      plugin::Plugin* grower = mgr.plugin("grower");
      wasm::Memory* mem = grower != nullptr ? grower->instance().memory() : nullptr;
      if (mem != nullptr && plan.draw_grow_denial()) mem->set_grow_denial_after(0);
      auto r = mgr.call("grower", "tick", {});
      if (!r.ok()) expect(false, cell + "grower did not survive a denied memory.grow: " +
                                     r.error().message);
      if (mem != nullptr) mem->set_grow_denial_after(std::nullopt);

      // Hot-swap site, rotating over the scheduler slots; the load
      // interceptor decides whether this swap is refused. A slot mid-storm
      // is skipped: a successful swap clears the consecutive-fault count
      // and would defuse the storm's deterministic quarantine.
      if (!plan.storm_active(mgr.domain(), rotated.name)) {
        auto bytes = sched::plugins::scheduler(rotated.policy);
        if (bytes.ok()) {
          const uint64_t refused = plan.count(FaultKind::kLoadFailure);
          Status sw = mgr.swap(rotated.name, *bytes);
          if (plan.count(FaultKind::kLoadFailure) > refused) {
            expect(!sw.ok(), cell + "injected load failure did not fail the swap");
            tolerate(sw);
          } else if (!sw.ok()) {
            expect(false, cell + "clean hot swap failed: " + sw.error().message);
          }
          expect(mgr.plugin(rotated.name) != nullptr,
                 cell + "swap left the slot without a plugin");
        }
      }
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
  const uint64_t per_cell_slots = dep.slots_run();
  rep.slots = per_cell_slots * cells;
  rep.slo_breach_windows = dep.slo_breach_windows();

  // --- Drain: stop injecting, land everything in flight -------------------
  for (auto& p : plans) p->set_active(false);
  for (uint32_t i = 0; i < cells; ++i) dep.link(i).flush_delayed();
  tolerate(dep.ric().poll());
  for (uint32_t i = 0; i < cells; ++i) {
    tolerate(dep.agent(i).poll());
    dep.mac(i).set_slot_time_padding(nullptr);
  }

  // --- Warm-call probe ----------------------------------------------------
  if (options.warm_path_probe) run_warm_probe(rep, expect);

  // --- Invariants ---------------------------------------------------------
  auto snapshot = journal.snapshot();
  rep.anomalies = journal.total();
  for (const auto& p : plans) {
    rep.injections += p->total();
    for (size_t k = 0; k < kFaultKindCount; ++k) {
      rep.injected_by_kind[k] += p->count(static_cast<FaultKind>(k));
    }
    rep.injection_log.insert(rep.injection_log.end(), p->log().begin(), p->log().end());
  }
  auto injected = [&rep](FaultKind k) {
    return rep.injected_by_kind[static_cast<size_t>(k)];
  };

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

  // 1:1 fault -> anomaly accounting, kind by kind, summed over every plan.
  eq(by_kind[obs::AnomalyKind::kTrap], injected(FaultKind::kForceTrap),
     "kTrap anomalies vs injected traps");
  eq(by_kind[obs::AnomalyKind::kFuelExhausted],
     injected(FaultKind::kFuelStarve) + injected(FaultKind::kDeadlineOverrun),
     "kFuelExhausted anomalies vs injected starvations");
  eq(by_kind[obs::AnomalyKind::kQuarantine], injected(FaultKind::kQuarantineStorm),
     "kQuarantine anomalies vs completed storms");
  eq(by_kind[obs::AnomalyKind::kLoadFailed], injected(FaultKind::kLoadFailure),
     "kLoadFailed anomalies vs injected load failures");
  eq(by_kind[obs::AnomalyKind::kFrameRejected], injected(FaultKind::kLinkCorrupt),
     "kFrameRejected anomalies vs corrupted frames");
  eq(by_kind[obs::AnomalyKind::kSlotOverrun], injected(FaultKind::kSlotOverrun),
     "kSlotOverrun anomalies vs injected overruns");
  eq(by_kind[obs::AnomalyKind::kDecline], 0, "unexpected kDecline anomalies");
  eq(by_kind[obs::AnomalyKind::kAdmissionReject], 0,
     "unexpected kAdmissionReject anomalies");
  eq(by_kind[obs::AnomalyKind::kOther], 0, "unexpected kOther anomalies");
  // SLO breach accounting is exact: every breached verdict the engine
  // produced landed as one kSloBreach journal entry, and vice versa.
  eq(by_kind[obs::AnomalyKind::kSloBreach], rep.slo_breaches,
     "kSloBreach anomalies vs breached SLO verdicts");
  expect(rep.slo_breaches == 0 || !rep.flight_bundle.empty(),
         "SLO breach occurred but no flight bundle was captured");

  uint64_t mac_sanitized = 0;
  for (uint32_t i = 0; i < cells; ++i) {
    const FaultPlan& plan = *plans[i];
    const std::string cell = "cell " + std::to_string(i) + " ";

    // Per-cell attribution: each cell's sanitizations land in its own MAC
    // domain, so cross-thread accounting never smears between shards.
    const uint64_t sanitized = sanitized_by_domain[dep.sched_plugins(i).domain()];
    eq(sanitized, plan.count(FaultKind::kSchedGarbage),
       cell + "kSanitized anomalies vs injected garbage responses");
    mac_sanitized += sanitized;

    // Spec-conformant growth denial: denied exactly as scheduled, no anomaly.
    plugin::Plugin* grower = dep.sched_plugins(i).plugin("grower");
    wasm::Memory* mem = grower != nullptr ? grower->instance().memory() : nullptr;
    eq(mem != nullptr ? mem->denied_grows() : 0, plan.count(FaultKind::kGrowDenial),
       cell + "denied grows vs scheduled denials");

    // Link conservation: every frame is delivered, dropped, or still held —
    // and after the drain nothing is held or pending.
    ric::Duplex& link = dep.link(i);
    eq(link.frames_sent() + link.frames_duplicated(),
       link.frames_delivered() + link.frames_dropped(), cell + "link frame conservation");
    eq(link.delayed_in_flight(), 0,
       cell + "frames still held for reordering after drain");
    eq(link.pending(ric::Duplex::Side::kA) + link.pending(ric::Duplex::Side::kB), 0,
       cell + "frames still queued after drain");
    eq(link.frames_corrupted(), plan.count(FaultKind::kLinkCorrupt),
       cell + "link corruption counter vs plan");
    eq(link.frames_dropped(), plan.count(FaultKind::kLinkDrop),
       cell + "link drop counter vs plan");
    eq(link.frames_duplicated(), plan.count(FaultKind::kLinkDuplicate),
       cell + "link duplicate counter vs plan");
    eq(link.frames_reordered(), plan.count(FaultKind::kLinkReorder),
       cell + "link reorder counter vs plan");

    // PRB conservation: grants never exceed carrier capacity.
    uint64_t granted = 0;
    for (const rt::SliceSpec& s : dc.slices) {
      granted += reg.counter("waran_mac_prb_granted_total",
                             {{"cell", std::to_string(i)},
                              {"slice", std::to_string(s.slice_id)}})
                     .value();
    }
    expect(granted <= static_cast<uint64_t>(dc.mac.n_prbs) * per_cell_slots,
           cell + "PRB conservation violated: " + std::to_string(granted) +
               " granted over " + std::to_string(per_cell_slots) + " slots of " +
               std::to_string(dc.mac.n_prbs));
  }
  eq(by_kind[obs::AnomalyKind::kSanitized], mac_sanitized,
     "kSanitized anomalies outside the MAC domains (xApp output must stay clean)");
  eq(reg.counter("waran_mac_slots_total").value(), rep.slots, "MAC slot counter");
  eq(reg.counter("waran_mac_slot_overrun_total").value(),
     injected(FaultKind::kSlotOverrun), "MAC slot-overrun counter vs plans");

  // Cross-layer accounting balance over every cell's managers and the RIC:
  // the slot's own record (CallCostAcc, SlotHealth) and the metrics
  // registry must agree call for call, fault for fault.
  uint64_t traps_sum = 0;
  uint64_t fuel_sum = 0;
  for (plugin::PluginManager* m : managers) {
    for (const std::string& s : m->slot_names()) {
      const plugin::SlotHealth* h = m->health(s);
      const CallCostAcc* c = m->cost(s);
      if (h == nullptr || c == nullptr) continue;
      const std::string where = m->domain() + "/" + s;
      eq(reg.counter("waran_plugin_calls_total", {{"domain", m->domain()}, {"slot", s}})
             .value(),
         c->calls(), "calls_total counter vs slot calls for " + where);
      eq(reg.counter("waran_plugin_traps_total", {{"domain", m->domain()}, {"slot", s}})
             .value(),
         h->traps, "traps_total counter vs health for " + where);
      eq(h->faults, h->traps + h->fuel_exhaustions, "fault breakdown for " + where);
      traps_sum += h->traps;
      fuel_sum += h->fuel_exhaustions;
    }
  }
  // With only benign plugins in the scenario, every sandbox fault is an
  // injected one.
  eq(traps_sum, injected(FaultKind::kForceTrap), "summed slot traps vs injected traps");
  eq(fuel_sum, injected(FaultKind::kFuelStarve) + injected(FaultKind::kDeadlineOverrun),
     "summed fuel exhaustions vs injected starvations");

  rep.passed = rep.violations.empty();
  return rep;
}
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
