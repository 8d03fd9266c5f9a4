#include "obs/fleet.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>

#include "obs/trace.h"

namespace waran::obs {

// ---------------------------------------------------------------------------
// CellTelemetry

void CellTelemetry::merge(const CellTelemetry& o) {
  cell = std::min(cell, o.cell);
  cells_merged += o.cells_merged;
  slots += o.slots;
  slot_overruns += o.slot_overruns;
  prb_granted += o.prb_granted;
  prb_capacity += o.prb_capacity;
  slots_scheduled += o.slots_scheduled;
  sched_faults += o.sched_faults;
  sanitized_allocs += o.sanitized_allocs;
  plugin_calls += o.plugin_calls;
  plugin_traps += o.plugin_traps;
  plugin_fuel_exhausted += o.plugin_fuel_exhausted;
  plugin_declines += o.plugin_declines;
  plugin_fuel_used += o.plugin_fuel_used;
  quarantines += o.quarantines;
  frames_rejected += o.frames_rejected;
  anomalies += o.anomalies;
  trace_writes += o.trace_writes;
  trace_dropped += o.trace_dropped;
  slot_wall_ns.merge(o.slot_wall_ns);
  sched_wall_ns.merge(o.sched_wall_ns);
}

namespace {

void append_hist_json(std::string& out, const char* name, const HistState& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"p50\":%" PRIu64
                ",\"p99\":%" PRIu64 "}",
                name, h.count, h.sum, h.quantile(0.5), h.quantile(0.99));
  out += buf;
}

}  // namespace

std::string CellTelemetry::to_json() const {
  std::string out;
  out.reserve(640);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"gnb\":%u,\"cell\":%u,\"cells_merged\":%u,\"slots\":%" PRIu64
                ",\"slot_overruns\":%" PRIu64 ",\"prb_granted\":%" PRIu64
                ",\"prb_capacity\":%" PRIu64 ",\"slots_scheduled\":%" PRIu64,
                gnb, cell, cells_merged, slots, slot_overruns, prb_granted,
                prb_capacity, slots_scheduled);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"sched_faults\":%" PRIu64 ",\"sanitized_allocs\":%" PRIu64
                ",\"plugin_calls\":%" PRIu64 ",\"plugin_traps\":%" PRIu64
                ",\"plugin_fuel_exhausted\":%" PRIu64 ",\"plugin_declines\":%" PRIu64
                ",\"plugin_fuel_used\":%" PRIu64,
                sched_faults, sanitized_allocs, plugin_calls, plugin_traps,
                plugin_fuel_exhausted, plugin_declines, plugin_fuel_used);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"quarantines\":%" PRIu64 ",\"frames_rejected\":%" PRIu64
                ",\"anomalies\":%" PRIu64 ",\"trace_writes\":%" PRIu64
                ",\"trace_dropped\":%" PRIu64 ",",
                quarantines, frames_rejected, anomalies, trace_writes, trace_dropped);
  out += buf;
  append_hist_json(out, "slot_wall_ns", slot_wall_ns);
  out += ',';
  append_hist_json(out, "sched_wall_ns", sched_wall_ns);
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// FleetAggregator

namespace {

constexpr AnomalyKind kAllAnomalyKinds[] = {
    AnomalyKind::kTrap,          AnomalyKind::kFuelExhausted,
    AnomalyKind::kDecline,       AnomalyKind::kQuarantine,
    AnomalyKind::kSanitized,     AnomalyKind::kFrameRejected,
    AnomalyKind::kSlotOverrun,   AnomalyKind::kLoadFailed,
    AnomalyKind::kSloBreach,     AnomalyKind::kOther,
};

}  // namespace

FleetAggregator::FleetAggregator(std::vector<FleetCellSpec> specs)
    : specs_(std::move(specs)) {
  auto& reg = MetricsRegistry::global();
  handles_.resize(specs_.size());
  totals_.resize(specs_.size());
  window_base_.resize(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    const FleetCellSpec& spec = specs_[i];
    CellHandles& h = handles_[i];
    const std::string cell_label = std::to_string(spec.cell);
    // find_or_create pre-registers at zero anything not yet written, so
    // every pointer below is valid for the registry's lifetime.
    h.slots = &reg.counter("waran_cell_slots_total", {{"cell", cell_label}});
    h.overruns = &reg.counter("waran_cell_slot_overrun_total", {{"cell", cell_label}});
    h.slot_wall = &reg.histogram("waran_cell_slot_wall_ns", {{"cell", cell_label}});
    h.slices.reserve(spec.slice_ids.size());
    for (const std::string& sid : spec.slice_ids) {
      Labels labels = {{"cell", cell_label}, {"slice", sid}};
      SliceHandles sh;
      sh.prb_granted = &reg.counter("waran_mac_prb_granted_total", labels);
      sh.sched_faults = &reg.counter("waran_mac_sched_faults_total", labels);
      sh.sanitized = &reg.counter("waran_mac_sanitized_allocs_total", labels);
      sh.slots_scheduled = &reg.counter("waran_mac_slots_scheduled_total", labels);
      h.slices.push_back(sh);
    }
    auto add_slot = [&](const std::string& domain, const std::string& slot,
                        bool sched) {
      Labels labels = {{"domain", domain}, {"slot", slot}};
      SlotHandles sh;
      sh.calls = &reg.counter("waran_plugin_calls_total", labels);
      sh.traps = &reg.counter("waran_plugin_traps_total", labels);
      sh.fuel_exhausted = &reg.counter("waran_plugin_fuel_exhausted_total", labels);
      sh.declines = &reg.counter("waran_plugin_declines_total", labels);
      sh.fuel_used = &reg.counter("waran_plugin_fuel_used_total", labels);
      sh.wall = &reg.histogram("waran_plugin_wall_ns", labels);
      sh.sched = sched;
      h.slots_h.push_back(sh);
    };
    for (const std::string& slot : spec.sched_slots) {
      add_slot(spec.mac_domain, slot, /*sched=*/true);
    }
    if (!spec.agent_domain.empty()) {
      add_slot(spec.agent_domain, "comm", /*sched=*/false);
      add_slot(spec.agent_domain, "ctl", /*sched=*/false);
    }
    for (const std::string* domain : {&spec.mac_domain, &spec.agent_domain}) {
      if (domain->empty()) continue;
      for (AnomalyKind kind : kAllAnomalyKinds) {
        AnomalyHandle ah;
        ah.c = &reg.counter("waran_anomaly_total",
                            {{"domain", *domain}, {"kind", to_string(kind)}});
        ah.kind = kind;
        h.anomalies.push_back(ah);
      }
    }
    h.ring = spec.ring;
    totals_[i].gnb = spec.gnb;
    totals_[i].cell = spec.cell;
    window_base_[i] = totals_[i];
  }
}

const CellTelemetry& FleetAggregator::collect_cell(size_t i) {
  const FleetCellSpec& spec = specs_[i];
  const CellHandles& h = handles_[i];
  CellTelemetry& t = totals_[i];
  t.gnb = spec.gnb;
  t.cell = spec.cell;
  t.cells_merged = 1;
  t.slots = h.slots->value();
  t.slot_overruns = h.overruns->value();
  t.prb_capacity = t.slots * spec.n_prbs;
  t.slot_wall_ns = HistState::from(*h.slot_wall);
  t.prb_granted = 0;
  t.slots_scheduled = 0;
  t.sched_faults = 0;
  t.sanitized_allocs = 0;
  for (const SliceHandles& sh : h.slices) {
    t.prb_granted += sh.prb_granted->value();
    t.sched_faults += sh.sched_faults->value();
    t.sanitized_allocs += sh.sanitized->value();
    t.slots_scheduled += sh.slots_scheduled->value();
  }
  t.plugin_calls = 0;
  t.plugin_traps = 0;
  t.plugin_fuel_exhausted = 0;
  t.plugin_declines = 0;
  t.plugin_fuel_used = 0;
  t.sched_wall_ns = HistState{};
  for (const SlotHandles& sh : h.slots_h) {
    t.plugin_calls += sh.calls->value();
    t.plugin_traps += sh.traps->value();
    t.plugin_fuel_exhausted += sh.fuel_exhausted->value();
    t.plugin_declines += sh.declines->value();
    t.plugin_fuel_used += sh.fuel_used->value();
    if (sh.sched) t.sched_wall_ns.merge(HistState::from(*sh.wall));
  }
  t.quarantines = 0;
  t.frames_rejected = 0;
  t.anomalies = 0;
  for (const AnomalyHandle& ah : h.anomalies) {
    const uint64_t v = ah.c->value();
    t.anomalies += v;
    if (ah.kind == AnomalyKind::kQuarantine) t.quarantines += v;
    if (ah.kind == AnomalyKind::kFrameRejected) t.frames_rejected += v;
  }
  if (h.ring != nullptr) {
    t.trace_writes = h.ring->writes();
    t.trace_dropped = h.ring->dropped();
  } else {
    t.trace_writes = 0;
    t.trace_dropped = 0;
  }
  return t;
}

void FleetAggregator::begin_window() { window_base_ = totals_; }

CellTelemetry FleetAggregator::cell_window(size_t i) const {
  CellTelemetry t = totals_[i];
  const CellTelemetry& b = window_base_[i];
  t.slots -= b.slots;
  t.slot_overruns -= b.slot_overruns;
  t.prb_granted -= b.prb_granted;
  t.prb_capacity -= b.prb_capacity;
  t.slots_scheduled -= b.slots_scheduled;
  t.sched_faults -= b.sched_faults;
  t.sanitized_allocs -= b.sanitized_allocs;
  t.plugin_calls -= b.plugin_calls;
  t.plugin_traps -= b.plugin_traps;
  t.plugin_fuel_exhausted -= b.plugin_fuel_exhausted;
  t.plugin_declines -= b.plugin_declines;
  t.plugin_fuel_used -= b.plugin_fuel_used;
  t.quarantines -= b.quarantines;
  t.frames_rejected -= b.frames_rejected;
  t.anomalies -= b.anomalies;
  t.trace_writes -= b.trace_writes;
  // trace_dropped is not monotone across a window (it saturates at
  // head - capacity); report the absolute value instead of a delta.
  t.slot_wall_ns.subtract(b.slot_wall_ns);
  t.sched_wall_ns.subtract(b.sched_wall_ns);
  return t;
}

CellTelemetry FleetAggregator::gnb_rollup(uint32_t gnb, bool window) const {
  CellTelemetry out;
  out.gnb = gnb;
  out.cell = std::numeric_limits<uint32_t>::max();
  out.cells_merged = 0;
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].gnb != gnb) continue;
    out.merge(window ? cell_window(i) : totals_[i]);
  }
  return out;
}

CellTelemetry FleetAggregator::fleet_rollup(bool window) const {
  CellTelemetry out;
  out.cell = std::numeric_limits<uint32_t>::max();
  out.cells_merged = 0;
  for (size_t i = 0; i < specs_.size(); ++i) {
    out.merge(window ? cell_window(i) : totals_[i]);
  }
  return out;
}

std::string FleetAggregator::to_json() const {
  std::string out = "{\"cells\":[";
  for (size_t i = 0; i < totals_.size(); ++i) {
    if (i > 0) out += ',';
    out += totals_[i].to_json();
  }
  out += "],\"fleet\":";
  out += fleet_rollup().to_json();
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// FleetView

void FleetView::update(const CellTelemetry& t) {
  cells_[{t.gnb, t.cell}] = t;
  ++updates_;
}

const CellTelemetry* FleetView::cell(uint32_t gnb, uint32_t cell) const {
  auto it = cells_.find({gnb, cell});
  return it == cells_.end() ? nullptr : &it->second;
}

CellTelemetry FleetView::gnb_rollup(uint32_t gnb) const {
  CellTelemetry out;
  out.gnb = gnb;
  out.cell = std::numeric_limits<uint32_t>::max();
  out.cells_merged = 0;
  for (const auto& [key, t] : cells_) {
    if (key.first == gnb) out.merge(t);
  }
  return out;
}

CellTelemetry FleetView::fleet_rollup() const {
  CellTelemetry out;
  out.cell = std::numeric_limits<uint32_t>::max();
  out.cells_merged = 0;
  for (const auto& [key, t] : cells_) out.merge(t);
  return out;
}

std::string FleetView::to_json() const {
  std::string out = "{\"cells\":[";
  bool first = true;
  for (const auto& [key, t] : cells_) {
    if (!first) out += ',';
    first = false;
    out += t.to_json();
  }
  out += "],\"fleet\":";
  out += fleet_rollup().to_json();
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// Merged cross-cell Chrome trace

namespace {

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

struct MergedEvent {
  TraceEvent ev;
  uint32_t pid = 0;
  uint64_t order = 0;  ///< position within its ring: deterministic tie-break
};

}  // namespace

std::string export_merged_chrome_trace(const std::vector<MergedTrack>& tracks) {
  std::vector<MergedEvent> events;
  uint64_t recorded_total = 0;
  uint64_t dropped_total = 0;
  size_t retained_total = 0;
  std::vector<std::vector<TraceEvent>> snapshots;
  snapshots.reserve(tracks.size());
  for (const MergedTrack& tr : tracks) {
    snapshots.push_back(tr.ring != nullptr ? tr.ring->snapshot()
                                           : std::vector<TraceEvent>{});
    retained_total += snapshots.back().size();
  }
  events.reserve(retained_total);
  for (size_t t = 0; t < tracks.size(); ++t) {
    for (size_t i = 0; i < snapshots[t].size(); ++i) {
      events.push_back({snapshots[t][i], tracks[t].pid, static_cast<uint64_t>(i)});
    }
  }
  // Global virtual-clock order; (pid, ring position) breaks timestamp ties
  // deterministically, so the merged bytes are a pure function of the run.
  std::stable_sort(events.begin(), events.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     if (a.ev.t_ns != b.ev.t_ns) return a.ev.t_ns < b.ev.t_ns;
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.order < b.order;
                   });

  std::string out;
  out.reserve(events.size() * 130 + tracks.size() * 200 + 256);
  out += "{\"traceEvents\":[";
  char buf[192];
  bool first = true;
  for (const MergedTrack& tr : tracks) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":1,"
                  "\"args\":{\"name\":\"",
                  tr.pid);
    out += buf;
    append_json_escaped(out, tr.name);
    out += "\"}}";
  }
  for (const MergedEvent& me : events) {
    const TraceEvent& ev = me.ev;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, ev.name);
    out += "\",\"cat\":\"";
    out += to_string(static_cast<TraceCat>(ev.cat));
    std::snprintf(buf, sizeof(buf), "\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%u,\"tid\":1",
                  ev.phase, static_cast<double>(ev.t_ns) / 1000.0, me.pid);
    out += buf;
    if (ev.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(ev.dur_ns) / 1000.0);
      out += buf;
    }
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"slot\":%llu,\"arg\":%u}}",
                  static_cast<unsigned long long>(ev.slot), ev.arg);
    out += buf;
  }
  out += "],\"metadata\":{\"rings\":[";
  first = true;
  for (size_t t = 0; t < tracks.size(); ++t) {
    const MergedTrack& tr = tracks[t];
    const uint64_t recorded = tr.ring != nullptr ? tr.ring->writes() : 0;
    const uint64_t dropped = tr.ring != nullptr ? tr.ring->dropped() : 0;
    recorded_total += recorded;
    dropped_total += dropped;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, tr.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"pid\":%u,\"recorded\":%" PRIu64 ",\"retained\":%zu"
                  ",\"dropped\":%" PRIu64 "}",
                  tr.pid, recorded, snapshots[t].size(), dropped);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"recorded_total\":%" PRIu64 ",\"retained_total\":%zu"
                ",\"dropped_total\":%" PRIu64 "}}",
                recorded_total, retained_total, dropped_total);
  out += buf;
  return out;
}

}  // namespace waran::obs
