// waran_obs — runs an instrumented scenario and exports the observability
// surfaces: a Chrome trace_event JSON (chrome://tracing / Perfetto), a
// Prometheus text snapshot, a JSON metrics snapshot, and the trap/anomaly
// journal. This is the CLI face of waran::obs and the CI smoke check for
// the whole telemetry pipeline.
//
// Usage:
//   waran_obs --scenario smoke|mvno [--slots N] [--trace FILE]
//             [--prom FILE] [--json FILE] [--check] [--quiet]
//   waran_obs --cells N [--seed S] [--slots N] [--trace FILE] [--prom FILE]
//             [--json FILE] [--flight FILE] [--check] [--quiet]
//
// Scenarios (both are the paper's §4A MVNO-slicing use case wired to a
// near-RT RIC; they differ only in scale):
//   smoke — 3 MVNO slices + RIC closed loop + injected faults, 300 slots.
//           Fast enough for CI; still exercises every instrumented layer.
//   mvno  — same topology, 2000 slots (default) for meaningful p50/p99.
//
// --cells N switches to the fleet telemetry plane: a threaded N-cell
// rt::GnbDeployment on virtual time with the SLO engine on. Exports become
// the merged cross-cell Chrome trace (per-cell process tracks + ring drop
// accounting in the metadata), the hierarchical fleet rollup JSON
// (cell -> gNB -> fleet, plus the latest HealthReport and the RIC's
// reconstructed view), and the labeled Prometheus snapshot. --flight writes
// a flight-recorder bundle (always; reason records whether an SLO window
// breached) for CI artifact upload.
//
// --check self-validates the exports (non-empty well-formed Prometheus
// text with the expected metric families, parseable Chrome trace with
// nested spans, parseable JSON snapshot) and exits non-zero on violation.
// In fleet mode it additionally runs the deployment twice and fails unless
// the merged traces are byte-identical and the HealthReports equal, and
// asserts the RIC's wire-reconstructed fleet view matches the deployment's
// ground truth exactly.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "codec/json.h"
#include "obs/anomaly.h"
#include "obs/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plugin/manager.h"
#include "ran/mac.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/plugin_sources.h"
#include "ric/quota_inter.h"
#include "rt/deployment.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"

using namespace waran;

namespace {

struct Options {
  std::string scenario = "smoke";
  uint32_t slots = 0;   // 0 = scenario default
  uint32_t cells = 0;   // > 0 switches to the fleet deployment mode
  uint64_t seed = 7;    // fleet mode only (flight bundles replay from it)
  std::string trace_path;
  std::string prom_path;
  std::string json_path;
  std::string flight_path;  // fleet mode: flight-recorder bundle output
  bool check = false;
  bool quiet = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario smoke|mvno [--slots N] [--trace FILE]\n"
               "          [--prom FILE] [--json FILE] [--check] [--quiet]\n"
               "       %s --cells N [--seed S] [--slots N] [--trace FILE]\n"
               "          [--prom FILE] [--json FILE] [--flight FILE]\n"
               "          [--check] [--quiet]\n",
               argv0, argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return out.good();
}

// ---------------------------------------------------------------------------
// Fleet mode (--cells N): the telemetry plane over a multi-cell deployment.
// ---------------------------------------------------------------------------

/// Everything one deployment run exports, captured so --check can run the
/// whole thing twice and compare byte-for-byte.
struct FleetRun {
  bool ok = false;
  std::string merged_trace;  ///< cross-cell Chrome trace (obs/fleet.h)
  std::string health_json;   ///< latest HealthReport
  std::string fleet_json;    ///< rollup + health + RIC-reconstructed view
  std::string prom;
  std::string flight;        ///< flight-recorder bundle
  uint64_t fleet_slots = 0;
  uint64_t breach_windows = 0;
  uint64_t telemetry_updates = 0;
  bool ric_matches = false;  ///< RIC fleet view == shipped ground truth
};

FleetRun run_fleet_once(const Options& opt, bool print) {
  FleetRun out;
  const uint32_t total_slots = opt.slots != 0 ? opt.slots : 600;

  // Fleet runs accumulate into the same global registry/journal as any
  // other scenario; reset so repeated runs are comparable byte-for-byte.
  obs::MetricsRegistry::global().reset_values();
  obs::AnomalyJournal::global().clear();

  rt::DeploymentConfig dc;
  dc.cells = opt.cells;
  dc.seed = opt.seed;
  dc.threaded = true;
  dc.virtual_time = true;  // determinism: same seed => same exports
  dc.report_period_slots = 20;
  dc.trace_capacity = 1 << 12;
  dc.slo_window_slots = std::min(100u, total_slots);
  rt::GnbDeployment dep(dc);
  if (!dep.status().ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 dep.status().error().message.c_str());
    return out;
  }
  obs::FlightContext fctx = dep.flight_context();
  fctx.scenario = "fleet";
  dep.set_flight_context(fctx);

  if (auto st = dep.run_slots(total_slots); !st.ok()) {
    std::fprintf(stderr, "run_slots failed: %s\n", st.error().message.c_str());
    return out;
  }

  // The RIC-reconstruction invariant: the fleet view rebuilt purely from
  // telemetry blocks that crossed the E2 wire must equal the exact
  // summaries the cells last shipped.
  out.ric_matches = dep.ric().fleet_view() == dep.shipped_view();
  out.telemetry_updates = dep.ric().stats().telemetry_updates;
  out.breach_windows = dep.slo_breach_windows();

  // Workers are parked between run_slots calls, so the coordinator may
  // collect every cell for the final ground-truth rollup.
  for (uint32_t i = 0; i < opt.cells; ++i) (void)dep.fleet().collect_cell(i);
  out.fleet_slots = dep.fleet().fleet_rollup().slots;

  out.merged_trace = dep.export_merged_trace();
  out.health_json = dep.last_health().to_json();
  out.fleet_json = "{\"fleet\":" + dep.fleet().to_json() +
                   ",\"health\":" + out.health_json +
                   ",\"ric_view\":" + dep.ric().fleet_view().to_json() + "}";
  out.prom = obs::MetricsRegistry::global().to_prometheus();
  out.flight = dep.capture_flight_bundle(
      out.breach_windows > 0 ? "slo_breach" : "export");

  if (print) {
    std::printf("fleet: %u cells x %u slots (seed %llu, virtual time)\n",
                opt.cells, total_slots,
                static_cast<unsigned long long>(opt.seed));
    for (uint32_t i = 0; i < opt.cells; ++i) {
      const obs::TraceRing* ring = dep.trace_ring(i);
      const obs::CellTelemetry& t = dep.fleet().cell_total(i);
      std::printf(
          "  cell %u: %llu slots, %llu PRBs granted, %llu plugin calls, "
          "trace %llu recorded / %llu dropped\n",
          i, static_cast<unsigned long long>(t.slots),
          static_cast<unsigned long long>(t.prb_granted),
          static_cast<unsigned long long>(t.plugin_calls),
          static_cast<unsigned long long>(ring != nullptr ? ring->writes() : 0),
          static_cast<unsigned long long>(ring != nullptr ? ring->dropped() : 0));
    }
    const obs::CellTelemetry fleet = dep.fleet().fleet_rollup();
    std::printf("  fleet rollup: %llu slots, %llu PRBs granted, %u cells merged\n",
                static_cast<unsigned long long>(fleet.slots),
                static_cast<unsigned long long>(fleet.prb_granted),
                fleet.cells_merged);
    const obs::HealthReport& health = dep.last_health();
    std::printf("  slo: %zu objectives, %llu breached, %llu unhealthy windows"
                " (last window %s)\n",
                health.verdicts.size(),
                static_cast<unsigned long long>(health.breaches),
                static_cast<unsigned long long>(out.breach_windows),
                health.healthy ? "healthy" : "UNHEALTHY");
    std::printf("  ric: %llu indications, %llu telemetry updates, "
                "reconstruction %s\n",
                static_cast<unsigned long long>(
                    dep.ric().stats().indications_processed),
                static_cast<unsigned long long>(out.telemetry_updates),
                out.ric_matches ? "== ground truth" : "MISMATCH");
  }
  out.ok = true;
  return out;
}

int run_fleet(const Options& opt) {
  FleetRun first = run_fleet_once(opt, !opt.quiet);
  if (!first.ok) return 1;

  if (!opt.trace_path.empty() && !write_file(opt.trace_path, first.merged_trace))
    return 1;
  if (!opt.prom_path.empty() && !write_file(opt.prom_path, first.prom)) return 1;
  if (!opt.json_path.empty() && !write_file(opt.json_path, first.fleet_json))
    return 1;
  if (!opt.flight_path.empty() && !write_file(opt.flight_path, first.flight))
    return 1;

  if (!opt.check) return 0;

  int failures = 0;
  auto fail = [&failures](const std::string& what) {
    std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
    ++failures;
  };

  // Merged trace: parseable, events on every cell's track plus the ric
  // track, and per-ring drop accounting that adds up.
  auto trace_parsed = codec::Json::parse(first.merged_trace);
  if (!trace_parsed.ok()) {
    fail("merged trace does not parse as JSON");
  } else {
    const codec::Json& events = (*trace_parsed)["traceEvents"];
    if (!events.is_array() || events.size() == 0) {
      fail("merged trace has no events");
    } else {
      std::vector<bool> saw_pid(opt.cells + 2, false);
      for (const codec::Json& e : events.as_array()) {
        const codec::Json& pid = e["pid"];
        if (!pid.is_number()) continue;
        auto p = static_cast<size_t>(pid.as_number());
        if (p < saw_pid.size()) saw_pid[p] = true;
      }
      for (uint32_t i = 1; i <= opt.cells; ++i) {
        if (!saw_pid[i]) fail("merged trace has no events for cell track pid " +
                              std::to_string(i));
      }
      if (!saw_pid[opt.cells + 1]) fail("merged trace has no ric-track events");
    }
    const codec::Json& rings = (*trace_parsed)["metadata"]["rings"];
    if (!rings.is_array() || rings.size() != opt.cells + 1) {
      fail("merged trace metadata must list one ring per cell plus the ric ring");
    } else {
      for (const codec::Json& r : rings.as_array()) {
        if (!r["recorded"].is_number() || !r["retained"].is_number() ||
            !r["dropped"].is_number() ||
            r["recorded"].as_number() !=
                r["retained"].as_number() + r["dropped"].as_number()) {
          fail("merged trace ring drop accounting does not balance");
        }
      }
    }
  }

  // Hierarchical rollup: the fleet-level slot count is exactly cells x
  // slots (each cell's counter increments once per run slot).
  const uint32_t total_slots = opt.slots != 0 ? opt.slots : 600;
  if (first.fleet_slots !=
      static_cast<uint64_t>(opt.cells) * static_cast<uint64_t>(total_slots)) {
    fail("fleet rollup slots != cells * slots");
  }
  auto json_parsed = codec::Json::parse(first.fleet_json);
  if (!json_parsed.ok()) fail("fleet JSON does not parse");

  // RIC reconstruction invariant.
  if (first.telemetry_updates == 0) fail("RIC received no telemetry blocks");
  if (!first.ric_matches) fail("RIC fleet view != shipped ground truth");

  // Prometheus: well-formed sample lines and the fleet-plane families.
  if (first.prom.empty()) fail("Prometheus output is empty");
  for (const char* family :
       {"waran_cell_slots_total", "waran_cell_slot_wall_ns",
        "waran_mac_prb_granted_total", "waran_plugin_calls_total",
        "waran_anomaly_total"}) {
    if (first.prom.find(family) == std::string::npos) {
      fail(std::string("Prometheus output missing family ") + family);
    }
  }

  // Flight bundle: parseable, self-describing, and carrying the replay
  // command that reproduces this exact run.
  auto flight_parsed = codec::Json::parse(first.flight);
  if (!flight_parsed.ok()) {
    fail("flight bundle does not parse as JSON");
  } else {
    if (!(*flight_parsed)["waran_flight_bundle"].is_number()) {
      fail("flight bundle missing schema marker");
    }
    if ((*flight_parsed)["replay"].as_string().find("--cells") ==
        std::string::npos) {
      fail("flight bundle replay command missing --cells");
    }
  }

  // Determinism: the entire export surface must be byte-identical on a
  // second run with the same seed.
  FleetRun second = run_fleet_once(opt, /*print=*/false);
  if (!second.ok) {
    fail("second deterministic run failed");
  } else {
    if (second.merged_trace != first.merged_trace) {
      fail("merged trace is not byte-identical across runs");
    }
    if (second.health_json != first.health_json) {
      fail("HealthReport is not identical across runs");
    }
    if (second.fleet_json != first.fleet_json) {
      fail("fleet rollup JSON is not identical across runs");
    }
    if (second.flight != first.flight) {
      fail("flight bundle is not byte-identical across runs");
    }
  }

  if (failures != 0) return 1;
  if (!opt.quiet) std::printf("check OK: fleet exports well-formed and deterministic\n");
  return 0;
}

/// The MVNO-slicing scenario, instrumented end to end: three MVNOs bring
/// their own Wasm intra-slice schedulers, a fourth "rogue" MVNO ships a
/// faulty plugin (out-of-bounds access) that the sandbox contains and the
/// manager quarantines; the gNB closes an E2-lite loop with a near-RT RIC
/// running the SLA xApp, and a burst of corrupted frames exercises the
/// comm-plugin rejection path. Returns 0 on success.
int run_scenario(const Options& opt) {
  const bool smoke = opt.scenario == "smoke";
  const uint32_t total_slots = opt.slots != 0 ? opt.slots : (smoke ? 300u : 2000u);

  obs::TraceRing::instance().enable(1 << 16);
  obs::MetricsRegistry::global().reset_values();
  obs::AnomalyJournal::global().clear();

  ran::GnbMac mac(ran::MacConfig{});
  auto quotas_owned = std::make_unique<ric::QuotaTableInterScheduler>();
  ric::QuotaTableInterScheduler* quotas = quotas_owned.get();
  mac.set_inter_scheduler(std::move(quotas_owned));

  plugin::PluginManager mgr;
  mgr.set_domain("mac");

  struct Mvno {
    uint32_t slice_id;
    const char* name;
    const char* policy;
    double target_bps;
    int ues;
  };
  const Mvno mvnos[] = {
      {1, "iot-co", "rr", 4e6, 2},
      {2, "stream-co", "mt", 14e6, 2},
      {3, "fair-co", "pf", 10e6, 2},
  };
  for (const Mvno& m : mvnos) {
    auto bytes = sched::plugins::scheduler(m.policy);
    if (!bytes.ok() || !mgr.install(m.name, *bytes).ok()) {
      std::fprintf(stderr, "failed to onboard %s\n", m.name);
      return 1;
    }
    ran::SliceConfig slice;
    slice.slice_id = m.slice_id;
    slice.name = m.name;
    slice.target_rate_bps = m.target_bps;
    mac.add_slice(slice, std::make_unique<sched::WasmIntraScheduler>(mgr, m.name));
    quotas->set_quota(m.slice_id, 12);
    for (int u = 0; u < m.ues; ++u) {
      ran::Channel::FadingParams fading;
      fading.mean_snr_db = 14.0 + 2.5 * u;
      mac.add_ue(m.slice_id, ran::Channel::fading(fading, m.slice_id * 100 + u),
                 ran::TrafficSource::full_buffer());
    }
  }

  // The rogue MVNO: its scheduler reads out of bounds every call. The trap
  // is contained, counted, journaled, and the slot ends up quarantined.
  auto rogue = sched::plugins::faulty("oob");
  if (!rogue.ok() || !mgr.install("rogue-co", *rogue).ok()) {
    std::fprintf(stderr, "failed to install rogue plugin\n");
    return 1;
  }
  {
    ran::SliceConfig slice;
    slice.slice_id = 4;
    slice.name = "rogue-co";
    slice.target_rate_bps = 1e6;
    mac.add_slice(slice, std::make_unique<sched::WasmIntraScheduler>(mgr, "rogue-co"));
    quotas->set_quota(4, 4);
    mac.add_ue(4, ran::Channel::pinned_mcs(12), ran::TrafficSource::full_buffer());
  }

  // E2 loop: gNB agent on side A, RIC with the SLA xApp on side B.
  ric::Duplex link;
  ric::GnbAgent agent(0, mac, quotas, link, ric::Duplex::Side::kA);
  ric::NearRtRic ric(link, ric::Duplex::Side::kB);
  auto comm = ric::plugin_sources::comm_framing();
  auto ctl = ric::plugin_sources::control_dispatch();
  auto sla = ric::plugin_sources::sla_xapp();
  if (!comm.ok() || !ctl.ok() || !sla.ok()) return 1;
  if (!agent.load_comm_plugin(*comm).ok()) return 1;
  if (!agent.load_control_plugin(*ctl).ok()) return 1;
  if (!ric.load_comm_plugin(*comm).ok()) return 1;
  if (!ric.add_xapp("sla", *sla).ok()) return 1;

  const uint32_t report_period = 100;
  for (uint32_t done = 0; done < total_slots; done += report_period) {
    uint32_t n = std::min(report_period, total_slots - done);
    if (auto st = mac.run_slots(n); !st.ok()) {
      std::fprintf(stderr, "MAC error: %s\n", st.error().message.c_str());
      return 1;
    }
    if (!agent.send_indication().ok()) return 1;
    if (!ric.poll().ok()) return 1;
    if (!agent.poll().ok()) return 1;
  }

  // Adversarial burst: corrupt every frame in flight; the RIC's comm
  // plugin rejects them inside the sandbox (anomaly kind frame_rejected).
  link.add_fault_stage([](std::vector<uint8_t>& frame, ric::Duplex::Side) {
    if (frame.size() > 14) frame[14] ^= 0x5a;
    return ric::Duplex::Fault{ric::Duplex::FaultAction::kCorrupt};
  });
  for (int i = 0; i < 5; ++i) {
    if (!agent.send_indication().ok()) return 1;
    if (!ric.poll().ok()) return 1;
  }
  link.clear_fault_stages();

  obs::TraceRing::instance().disable();

  // ---- Exports ----
  const std::string chrome = obs::TraceRing::instance().export_chrome_trace();
  const std::string prom = obs::MetricsRegistry::global().to_prometheus();
  const std::string json = obs::MetricsRegistry::global().to_json();
  if (!opt.trace_path.empty() && !write_file(opt.trace_path, chrome)) return 1;
  if (!opt.prom_path.empty() && !write_file(opt.prom_path, prom)) return 1;
  if (!opt.json_path.empty() && !write_file(opt.json_path, json)) return 1;

  if (!opt.quiet) {
    std::printf("scenario %s: %u slots, %zu trace events (%llu recorded, %llu "
                "dropped to wrap)\n",
                opt.scenario.c_str(), total_slots,
                obs::TraceRing::instance().snapshot().size(),
                static_cast<unsigned long long>(obs::TraceRing::instance().writes()),
                static_cast<unsigned long long>(obs::TraceRing::instance().dropped()));
    // p50/p99 are the log2 estimates of each slot's registry wall-time
    // histogram (bucket upper bounds); bench/fig5d_exectime reports exact ones.
    std::printf("\n%-10s %8s %8s %10s %10s %8s %8s\n", "plugin", "calls", "faults",
                "p50_ns", "p99_ns", "fuel/call", "state");
    for (const Mvno& m : mvnos) {
      const plugin::SlotHealth* h = mgr.health(m.name);
      const CallCostAcc* c = mgr.cost(m.name);
      if (h == nullptr || c == nullptr) continue;
      const obs::Histogram& wall = obs::MetricsRegistry::global().histogram(
          "waran_plugin_wall_ns", {{"domain", mgr.domain()}, {"slot", m.name}});
      std::printf("%-10s %8llu %8llu %10llu %10llu %8.0f %8s\n", m.name,
                  static_cast<unsigned long long>(c->calls()),
                  static_cast<unsigned long long>(h->faults),
                  static_cast<unsigned long long>(wall.quantile(0.50)),
                  static_cast<unsigned long long>(wall.quantile(0.99)),
                  c->calls() ? static_cast<double>(c->total_fuel()) /
                                   static_cast<double>(c->calls())
                             : 0.0,
                  h->quarantined ? "QUAR" : "ok");
    }
    if (const plugin::SlotHealth* h = mgr.health("rogue-co")) {
      std::printf("%-10s %8llu %8llu %10s %10s %8s %8s\n", "rogue-co",
                  static_cast<unsigned long long>(mgr.cost("rogue-co")->calls()),
                  static_cast<unsigned long long>(h->faults), "-", "-", "-",
                  h->quarantined ? "QUAR" : "ok");
    }
    std::printf("\nper-slice rates: ");
    for (uint32_t id : mac.slice_ids()) {
      std::printf(" slice %u: %.2f Mb/s", id, mac.slice_rate_bps(id) / 1e6);
    }
    std::printf("\nRIC: %llu indications, %llu frames rejected, %llu xApp faults\n",
                static_cast<unsigned long long>(ric.stats().indications_processed),
                static_cast<unsigned long long>(ric.stats().frames_rejected),
                static_cast<unsigned long long>(ric.stats().xapp_faults));

    auto anomalies = obs::AnomalyJournal::global().snapshot();
    std::printf("\nanomaly journal (%zu records, newest last):\n", anomalies.size());
    size_t start = anomalies.size() > 8 ? anomalies.size() - 8 : 0;
    for (size_t i = start; i < anomalies.size(); ++i) {
      const obs::AnomalyRecord& a = anomalies[i];
      std::printf("  [%llu] slot %llu %s/%s %s: %s\n",
                  static_cast<unsigned long long>(a.seq),
                  static_cast<unsigned long long>(a.slot), a.domain.c_str(),
                  a.source.c_str(), obs::to_string(a.kind), a.detail.c_str());
    }
  }

  // ---- Self-validation (--check), the CI gate ----
  if (opt.check) {
    int failures = 0;
    auto fail = [&failures](const char* what) {
      std::fprintf(stderr, "check FAILED: %s\n", what);
      ++failures;
    };

    if (prom.empty()) fail("Prometheus output is empty");
    bool saw_type = false;
    for (size_t pos = 0; pos < prom.size();) {
      size_t end = prom.find('\n', pos);
      if (end == std::string::npos) {
        fail("Prometheus output missing trailing newline");
        break;
      }
      std::string line = prom.substr(pos, end - pos);
      pos = end + 1;
      if (line.empty()) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        saw_type = true;
        continue;
      }
      if (line[0] == '#') continue;
      // Every sample line is `name[{labels}] value`.
      size_t sp = line.rfind(' ');
      if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
        fail(("malformed Prometheus line: " + line).c_str());
        continue;
      }
      const std::string value = line.substr(sp + 1);
      char* endp = nullptr;
      std::strtod(value.c_str(), &endp);
      if (endp == value.c_str() || *endp != '\0') {
        fail(("non-numeric Prometheus value: " + line).c_str());
      }
    }
    if (!saw_type) fail("Prometheus output has no # TYPE lines");
    for (const char* family :
         {"waran_plugin_calls_total", "waran_plugin_traps_total",
          "waran_plugin_fuel_used_total", "waran_plugin_wall_ns",
          "waran_mac_prb_granted_total", "waran_mac_slots_total",
          "waran_e2_encoded_messages_total", "waran_anomaly_total"}) {
      if (prom.find(family) == std::string::npos) {
        fail((std::string("Prometheus output missing family ") + family).c_str());
      }
    }

    auto trace_parsed = codec::Json::parse(chrome);
    if (!trace_parsed.ok()) {
      fail("Chrome trace does not parse as JSON");
    } else {
      const codec::Json& events = (*trace_parsed)["traceEvents"];
      if (!events.is_array() || events.size() == 0) {
        fail("Chrome trace has no events");
      } else {
        // The acceptance shape: slot spans must contain nested wasm spans.
        bool saw_slot = false, saw_wasm = false, saw_host = false;
        for (const codec::Json& e : events.as_array()) {
          const std::string& cat = e["cat"].as_string();
          if (cat == "mac") saw_slot = true;
          if (cat == "wasm") saw_wasm = true;
          if (cat == "host") saw_host = true;
        }
        if (!saw_slot) fail("Chrome trace has no MAC slot spans");
        if (!saw_wasm) fail("Chrome trace has no Wasm call spans");
        if (!saw_host) fail("Chrome trace has no host-call spans");
      }
    }

    auto json_parsed = codec::Json::parse(json);
    if (!json_parsed.ok()) fail("JSON snapshot does not parse");

    if (obs::AnomalyJournal::global().total() == 0) {
      fail("anomaly journal is empty despite injected faults");
    }

    if (failures != 0) return 1;
    if (!opt.quiet) std::printf("\ncheck OK: all exports well-formed\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.scenario = v;
    } else if (arg == "--slots") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.slots = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.trace_path = v;
    } else if (arg == "--prom") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.prom_path = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.json_path = v;
    } else if (arg == "--cells") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.cells = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--flight") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.flight_path = v;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.cells > 0) return run_fleet(opt);
  if (opt.scenario != "smoke" && opt.scenario != "mvno") return usage(argv[0]);
  return run_scenario(opt);
}
