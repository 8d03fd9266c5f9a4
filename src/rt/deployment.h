// waran::rt multi-cell gNB deployment — the runtime layer's top: one gNB
// hosting N cells, each cell a shard bundling its own GnbMac (with Wasm
// MVNO schedulers behind a per-cell PluginManager), its own E2 Duplex link
// and GnbAgent, and its own trace ring, all reporting to a single shared
// NearRtRic. Each shard's execution is pinned to one CellExecutor worker
// thread; shared state is limited to thread-safe paths (MetricsRegistry and
// AnomalyJournal atomics/mutex, Duplex's internal lock, the RIC driven only
// by the coordinator thread).
//
// Two execution modes:
//
//   run_slots(n)          barrier-stepped: all cells execute slot k
//                         concurrently, park at the executors' idle
//                         barrier, then the coordinator polls the RIC and
//                         advances the virtual clock. With virtual_time
//                         this is fully deterministic — same config + seed
//                         => bit-identical metrics snapshot, trace hashes
//                         and journal, threaded or not (see digest()).
//
//   run_slots_unsynced(n) free-running: each cell runs its n slots
//                         back-to-back with no per-slot barrier — the
//                         scaling configuration bench/abl_rt.cpp measures.
//
// Construction never throws: wiring failures land in status() and the
// deployment refuses to run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "common/result.h"
#include "obs/fleet.h"
#include "obs/flight.h"
#include "obs/slo.h"
#include "ran/mac.h"
#include "ran/scheduler_iface.h"
#include "rt/clock.h"
#include "rt/executor.h"

namespace waran::obs {
class TraceRing;
}
namespace waran::plugin {
class PluginManager;
}
namespace waran::ric {
class Duplex;
class GnbAgent;
class NearRtRic;
class QuotaTableInterScheduler;
}  // namespace waran::ric

namespace waran::rt {

/// One MVNO slice replicated into every cell of the deployment.
struct SliceSpec {
  uint32_t slice_id = 0;
  std::string name;    ///< slice name and scheduler plugin slot
  std::string policy;  ///< intra-slice scheduler kind: "rr", "pf" or "mt"
  double target_rate_bps = 0.0;
  uint32_t quota_prbs = 12;  ///< initial PRB quota (RIC adjusts later)
  uint32_t ues = 2;
};

/// The paper's three-MVNO slicing scenario (§5B).
std::vector<SliceSpec> default_mvno_slices();

struct DeploymentConfig {
  uint32_t cells = 1;
  uint64_t seed = 1;  ///< derives per-cell channel/error seeds
  /// start() the cell executors (one worker thread per cell). Off = every
  /// task runs inline on the caller's thread in the same order — the
  /// differential baseline the determinism tests compare against.
  bool threaded = true;
  /// Run on rt::Clock virtual time for the deployment's lifetime. The
  /// clock advances by one slot period at each step barrier.
  bool virtual_time = true;
  /// Slots between E2 indications per cell (0 disables the E2 loop
  /// entirely: no agents' comm/ctl plugins, no RIC xApp).
  uint32_t report_period_slots = 10;
  /// Per-cell trace ring capacity (0 leaves per-cell tracing off). When on,
  /// the deployment also owns a coordinator-side "ric" ring of the same
  /// capacity, so RIC dispatch spans land in the merged trace too.
  size_t trace_capacity = 0;
  /// This deployment's gNB id in the fleet hierarchy (one deployment = one
  /// gNB today; federation PRs will differentiate).
  uint32_t gnb_id = 0;
  /// Slots per SLO evaluation window (0 disables the SLO engine). Windows
  /// are evaluated by the coordinator at barrier-stepped run_slots
  /// boundaries only (run_slots_unsynced never evaluates: free-running
  /// cells have no common window edge).
  uint32_t slo_window_slots = 0;
  /// Objectives; empty = obs::default_slos(slot budget).
  std::vector<obs::SloSpec> slos;
  /// Admission-time static analysis for the per-cell scheduler plugins
  /// (analysis/analysis.h): verify translated streams and check each
  /// export's static fuel/frame bounds against the slot budget at
  /// install/swap. kEnforce makes construction fail (status()) on an
  /// over-budget scheduler — one kAdmissionReject anomaly, zero calls.
  analysis::AdmissionMode admission = analysis::AdmissionMode::kOff;
  /// Per-call fuel budget for scheduler plugins; 0 keeps the PluginLimits
  /// default. Admission (when enabled) checks static min-fuel against it.
  uint64_t sched_fuel_per_call = 0;
  /// MAC template; cell, domain and error_seed are overridden per cell.
  ran::MacConfig mac;
  std::vector<SliceSpec> slices = default_mvno_slices();
  /// Optional wrapper applied to every slice's Wasm scheduler — the chaos
  /// harness uses this to splice its fault-injecting decorator into each
  /// cell without the deployment knowing about chaos.
  std::function<std::unique_ptr<ran::IntraSliceScheduler>(
      std::unique_ptr<ran::IntraSliceScheduler>, uint32_t cell, uint32_t slice_id)>
      decorate_scheduler;
};

class GnbDeployment {
 public:
  explicit GnbDeployment(DeploymentConfig config);
  ~GnbDeployment();

  GnbDeployment(const GnbDeployment&) = delete;
  GnbDeployment& operator=(const GnbDeployment&) = delete;

  /// Construction outcome; run_slots refuses to run a failed deployment.
  const Status& status() const { return status_; }

  uint32_t cells() const { return static_cast<uint32_t>(cells_.size()); }
  uint64_t slots_run() const { return slots_run_; }

  /// Barrier-stepped execution (deterministic under virtual time).
  Status run_slots(uint32_t n);
  /// Free-running execution: no per-slot barrier; the E2 loop settles once
  /// at the end. Maximizes parallel slot throughput for the scaling bench.
  Status run_slots_unsynced(uint32_t n);

  // --- Shard access. Between run_slots calls the workers are parked at
  // --- the idle barrier, so the coordinator may touch any shard safely.
  ran::GnbMac& mac(uint32_t cell);
  ric::GnbAgent& agent(uint32_t cell);  ///< E2 loop must be enabled
  ric::Duplex& link(uint32_t cell);
  plugin::PluginManager& sched_plugins(uint32_t cell);
  CellExecutor& executor(uint32_t cell);
  obs::TraceRing* trace_ring(uint32_t cell);  ///< null if trace_capacity == 0
  obs::TraceRing* ric_trace_ring() { return ric_ring_.get(); }
  ric::NearRtRic& ric() { return *ric_; }

  // --- Fleet telemetry plane (obs/fleet.h). The aggregator is always on:
  // --- handles resolve at construction, per-cell collection rides each
  // --- cell's indication (zero-alloc, on the cell's own thread).
  obs::FleetAggregator& fleet() { return *fleet_; }
  const obs::FleetAggregator& fleet() const { return *fleet_; }
  /// Ground truth for the RIC-reconstruction invariant: the exact summary
  /// each cell last shipped in an indication. In a loss-free run the RIC's
  /// fleet_view() equals this bit for bit.
  obs::FleetView shipped_view() const;

  /// Most recent SLO evaluation (default-constructed before the first
  /// window or when slo_window_slots == 0).
  const obs::HealthReport& last_health() const { return last_health_; }
  uint64_t slo_breach_windows() const { return slo_breach_windows_; }
  /// Invoked by the coordinator after every unhealthy window evaluation,
  /// between barriers (all workers parked) — the flight-recorder trigger.
  void set_breach_hook(std::function<void(const obs::HealthReport&)> hook) {
    breach_hook_ = std::move(hook);
  }

  /// Replay coordinates embedded in flight bundles; the constructor fills
  /// seed/cells/virtual_time, callers may override (chaos adds its episode
  /// shape, tools their command line).
  void set_flight_context(obs::FlightContext ctx) { flight_ctx_ = std::move(ctx); }
  const obs::FlightContext& flight_context() const { return flight_ctx_; }
  /// Self-contained post-mortem bundle of the deployment's current state
  /// (obs/flight.h). Pure function of deployment state under virtual time.
  std::string capture_flight_bundle(std::string_view reason) const;

  /// Per-cell process tracks (+ the ric ring) for the merged trace.
  std::vector<obs::MergedTrack> trace_tracks() const;
  /// One Chrome trace over every cell's ring and the ric ring, with
  /// per-cell drop accounting in the metadata (obs/fleet.h).
  std::string export_merged_trace() const;

  /// FNV-1a combination of the per-cell trace-ring hashes and the ric
  /// ring's (0 when tracing is off). Deterministic under virtual time.
  uint64_t trace_hash() const;

  /// Deterministic fingerprint of the run: the global metrics JSON
  /// snapshot plus per-cell MAC/slice/agent state, RIC stats and the trace
  /// hash. Two runs with the same config and seed — threaded or inline —
  /// must produce byte-identical digests under virtual time (callers reset
  /// the global registry/journal before constructing the deployment, since
  /// those accumulate across runs).
  std::string digest() const;

 private:
  struct Cell;

  Status wire_e2_loop();

  DeploymentConfig config_;
  std::optional<VirtualClockGuard> vguard_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::unique_ptr<ric::NearRtRic> ric_;
  std::unique_ptr<obs::TraceRing> ric_ring_;
  std::unique_ptr<obs::FleetAggregator> fleet_;
  std::unique_ptr<obs::SloEngine> slo_;
  obs::HealthReport last_health_;
  std::function<void(const obs::HealthReport&)> breach_hook_;
  obs::FlightContext flight_ctx_;
  uint64_t slo_breach_windows_ = 0;
  uint64_t window_start_slot_ = 0;
  Status status_;
  uint64_t slots_run_ = 0;
};

}  // namespace waran::rt
