// waran::obs fleet telemetry plane — cross-cell aggregation for a sharded
// deployment (rt::GnbDeployment) and for the RIC's reconstructed view of it.
//
// Three pieces:
//
//   CellTelemetry    one cell's telemetry summary as a flat POD: MAC slot
//                    counters, PRB accounting, per-slice scheduler outcomes,
//                    plugin sandbox counters, anomaly counts and the exact
//                    65-bucket log2 histogram state of the slot/scheduler
//                    wall-time distributions. Merging two summaries sums
//                    counters and merges histogram buckets exactly, so a
//                    rollup answers the same quantile queries as one
//                    combined histogram would (tests/obs_fleet_test.cpp
//                    proves this across boundary buckets).
//
//   FleetAggregator  the ground-truth side: resolves every per-cell labeled
//                    instrument in the global MetricsRegistry once at
//                    construction, then `collect_cell` re-reads them into a
//                    preallocated CellTelemetry with zero heap allocation —
//                    safe to run on the cell's own worker thread every
//                    report period (bench/abl_obs asserts the zero-alloc
//                    contract). Rollups go cell -> gNB -> deployment.
//
//   FleetView        the consumer side: keyed (gnb, cell) latest-summary
//                    store the NearRtRic maintains from telemetry blocks
//                    carried in E2 indications. The invariant the fleet
//                    plane is built around: after a report boundary the
//                    RIC's FleetView equals the aggregator's ground truth
//                    exactly (operator==, bucket for bucket).
//
// The merged cross-cell Chrome trace lives here too: each cell's TraceRing
// becomes one process track (pid = cell id + 1) in a single trace, events
// globally sorted by virtual-clock timestamp with a deterministic
// tie-break, and ring drop counts reported per cell in the trace metadata
// instead of silently truncating.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/anomaly.h"
#include "obs/metrics.h"

namespace waran::obs {

class TraceRing;

/// One cell's telemetry summary (or a rollup of several — see merge()).
/// Flat POD so it crosses the E2 wire as fixed-width little-endian fields
/// and compares exactly with operator==.
struct CellTelemetry {
  uint32_t gnb = 0;
  uint32_t cell = 0;
  uint32_t cells_merged = 1;  ///< 1 for a leaf; sum of leaves in a rollup

  // MAC slot loop.
  uint64_t slots = 0;
  uint64_t slot_overruns = 0;
  // PRB accounting across all slices (capacity = n_prbs * slots).
  uint64_t prb_granted = 0;
  uint64_t prb_capacity = 0;
  // Per-slice scheduler outcomes, summed over the cell's slices.
  uint64_t slots_scheduled = 0;
  uint64_t sched_faults = 0;
  uint64_t sanitized_allocs = 0;
  // Plugin sandbox counters, summed over the cell's scheduler slots and the
  // E2 agent's comm/ctl slots.
  uint64_t plugin_calls = 0;
  uint64_t plugin_traps = 0;
  uint64_t plugin_fuel_exhausted = 0;
  uint64_t plugin_declines = 0;
  uint64_t plugin_fuel_used = 0;
  // Containment events (from waran_anomaly_total{domain,kind}).
  uint64_t quarantines = 0;
  uint64_t frames_rejected = 0;
  uint64_t anomalies = 0;
  // Trace ring accounting (drop visibility per cell).
  uint64_t trace_writes = 0;
  uint64_t trace_dropped = 0;

  HistState slot_wall_ns;   ///< waran_cell_slot_wall_ns{cell}
  HistState sched_wall_ns;  ///< waran_plugin_wall_ns over scheduler slots

  /// Sums counters and merges histogram buckets exactly. The result
  /// represents the union: cells_merged accumulates, cell keeps the lowest
  /// member id (display only; rollups are identified by gnb/cells_merged).
  void merge(const CellTelemetry& o);
  bool operator==(const CellTelemetry&) const = default;
  std::string to_json() const;
};

/// Static description of one cell the aggregator should cover. Slot/slice
/// label sets must match what the deployment registered (GnbMac::add_slice,
/// PluginManager metric labels) or the counters read as permanent zeros.
struct FleetCellSpec {
  uint32_t gnb = 0;
  uint32_t cell = 0;
  std::string mac_domain;    ///< PluginManager domain of the schedulers ("mac0")
  std::string agent_domain;  ///< GnbAgent domain ("gnb0"); "" = no E2 agent
  std::vector<std::string> sched_slots;  ///< scheduler plugin slot names
  std::vector<std::string> slice_ids;    ///< slice id labels ("0", "1", ...)
  uint32_t n_prbs = 0;
  const TraceRing* ring = nullptr;  ///< optional; feeds trace_writes/dropped
};

class FleetAggregator {
 public:
  /// Resolves (or pre-creates at zero) every instrument it will ever read.
  /// All allocation happens here; collect_cell never allocates.
  explicit FleetAggregator(std::vector<FleetCellSpec> specs);

  size_t cells() const { return specs_.size(); }

  /// Re-reads cell i's instruments into its preallocated summary and
  /// returns it. Zero-alloc warm path; callable from the cell's own worker
  /// thread (reads only instruments that cell writes).
  const CellTelemetry& collect_cell(size_t i);
  /// Last collected totals for cell i (since registry values last reset).
  const CellTelemetry& cell_total(size_t i) const { return totals_[i]; }

  /// Marks the current totals as the base of a new evaluation window.
  /// collect_cell must have been called for every cell first.
  void begin_window();
  /// Totals minus the window base: what happened inside this window.
  CellTelemetry cell_window(size_t i) const;

  /// Rollups (merge of leaf summaries; `window` selects window deltas).
  CellTelemetry gnb_rollup(uint32_t gnb, bool window = false) const;
  CellTelemetry fleet_rollup(bool window = false) const;

  const FleetCellSpec& spec(size_t i) const { return specs_[i]; }

  /// {"cells":[...per-cell totals...],"fleet":{...rollup...}}
  std::string to_json() const;

 private:
  struct SliceHandles {
    Counter* prb_granted = nullptr;
    Counter* sched_faults = nullptr;
    Counter* sanitized = nullptr;
    Counter* slots_scheduled = nullptr;
  };
  struct SlotHandles {
    Counter* calls = nullptr;
    Counter* traps = nullptr;
    Counter* fuel_exhausted = nullptr;
    Counter* declines = nullptr;
    Counter* fuel_used = nullptr;
    Histogram* wall = nullptr;
    bool sched = false;  ///< counts toward sched_wall_ns
  };
  struct AnomalyHandle {
    Counter* c = nullptr;
    AnomalyKind kind = AnomalyKind::kOther;
  };
  struct CellHandles {
    Counter* slots = nullptr;
    Counter* overruns = nullptr;
    Histogram* slot_wall = nullptr;
    std::vector<SliceHandles> slices;
    std::vector<SlotHandles> slots_h;
    std::vector<AnomalyHandle> anomalies;
    const TraceRing* ring = nullptr;
  };

  std::vector<FleetCellSpec> specs_;
  std::vector<CellHandles> handles_;
  std::vector<CellTelemetry> totals_;
  std::vector<CellTelemetry> window_base_;
};

/// The RIC-side fleet reconstruction: latest CellTelemetry per (gnb, cell),
/// fed from the telemetry blocks in E2 indications. Two views are equal
/// when they hold the same cells with identical summaries.
class FleetView {
 public:
  void update(const CellTelemetry& t);
  size_t size() const { return cells_.size(); }
  uint64_t updates() const { return updates_; }
  const CellTelemetry* cell(uint32_t gnb, uint32_t cell) const;
  CellTelemetry gnb_rollup(uint32_t gnb) const;
  CellTelemetry fleet_rollup() const;
  bool operator==(const FleetView& o) const { return cells_ == o.cells_; }
  std::string to_json() const;
  void clear() {
    cells_.clear();
    updates_ = 0;
  }

 private:
  std::map<std::pair<uint32_t, uint32_t>, CellTelemetry> cells_;
  uint64_t updates_ = 0;
};

/// One process track in the merged cross-cell Chrome trace.
struct MergedTrack {
  std::string name;  ///< process_name metadata ("cell0", "ric", ...)
  uint32_t pid = 1;
  const TraceRing* ring = nullptr;
};

/// Stitches the tracks' rings into one Chrome trace: per-track
/// process_name metadata events, all span/instant events tagged with their
/// track's pid and globally sorted by (t_ns, pid, ring order) — a total
/// order, so the bytes are identical across repeated virtual-time runs.
/// The top-level "rings" metadata reports recorded/retained/dropped per
/// track plus totals: wrap-around loss is declared, never silent.
std::string export_merged_chrome_trace(const std::vector<MergedTrack>& tracks);

}  // namespace waran::obs
