#include "rt/deployment.h"

#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plugin/manager.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/plugin_sources.h"
#include "ric/quota_inter.h"
#include "ric/transport.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"

namespace waran::rt {

std::vector<SliceSpec> default_mvno_slices() {
  return {
      {1, "iot-co", "rr", 4e6, 12, 2},
      {2, "stream-co", "mt", 14e6, 12, 2},
      {3, "fair-co", "pf", 10e6, 12, 2},
  };
}

struct GnbDeployment::Cell {
  uint32_t id = 0;
  std::unique_ptr<ran::GnbMac> mac;
  ric::QuotaTableInterScheduler* quotas = nullptr;  // owned by the MAC
  std::unique_ptr<plugin::PluginManager> sched_plugins;
  std::unique_ptr<ric::Duplex> link;
  std::unique_ptr<ric::GnbAgent> agent;
  std::unique_ptr<obs::TraceRing> ring;  // null when per-cell tracing is off
  /// Exact copy of the telemetry summary this cell last shipped in an
  /// indication (written by the cell's own worker inside send_indication;
  /// read by the coordinator between barriers). Ground truth for the
  /// RIC-reconstruction invariant.
  obs::CellTelemetry last_shipped;
  bool shipped = false;
  /// First contained run_slot failure on this shard; written only by the
  /// cell's worker (or the coordinator between barriers).
  Status status;
  // Last member: its destructor joins the worker before the shard state
  // above is torn down.
  std::unique_ptr<CellExecutor> executor;
};

GnbDeployment::GnbDeployment(DeploymentConfig config) : config_(std::move(config)) {
  if (config_.cells == 0) config_.cells = 1;
  if (config_.virtual_time) vguard_.emplace(0);

  for (uint32_t i = 0; i < config_.cells; ++i) {
    auto cell = std::make_unique<Cell>();
    cell->id = i;

    ran::MacConfig mc = config_.mac;
    mc.cell = i;
    mc.domain = "mac" + std::to_string(i);
    // Independent per-cell error stream, still a pure function of the seed.
    mc.error_seed = config_.seed * 0x9e3779b97f4a7c15ULL + i;
    cell->mac = std::make_unique<ran::GnbMac>(mc);

    auto quotas = std::make_unique<ric::QuotaTableInterScheduler>();
    cell->quotas = quotas.get();
    cell->mac->set_inter_scheduler(std::move(quotas));

    plugin::PluginLimits sched_limits;
    if (config_.sched_fuel_per_call > 0) {
      sched_limits.fuel_per_call = config_.sched_fuel_per_call;
    }
    sched_limits.admission = config_.admission;
    cell->sched_plugins = std::make_unique<plugin::PluginManager>(sched_limits);
    cell->sched_plugins->set_domain(mc.domain);

    for (const SliceSpec& s : config_.slices) {
      auto bytes = sched::plugins::scheduler(s.policy);
      if (!bytes.ok()) {
        status_ = bytes.error();
        return;
      }
      Status inst = cell->sched_plugins->install(s.name, *bytes);
      if (!inst.ok()) {
        status_ = inst.error();
        return;
      }
      std::unique_ptr<ran::IntraSliceScheduler> sched =
          std::make_unique<sched::WasmIntraScheduler>(*cell->sched_plugins, s.name);
      if (config_.decorate_scheduler) {
        sched = config_.decorate_scheduler(std::move(sched), i, s.slice_id);
      }
      ran::SliceConfig sc;
      sc.slice_id = s.slice_id;
      sc.name = s.name;
      sc.target_rate_bps = s.target_rate_bps;
      cell->mac->add_slice(sc, std::move(sched));
      cell->quotas->set_quota(s.slice_id, s.quota_prbs);
      for (uint32_t u = 0; u < s.ues; ++u) {
        ran::Channel::FadingParams fading;
        fading.mean_snr_db = 14.0 + 2.5 * u;
        uint64_t chan_seed = config_.seed ^ (static_cast<uint64_t>(i) << 32) ^
                             (static_cast<uint64_t>(s.slice_id) * 100 + u);
        cell->mac->add_ue(s.slice_id, ran::Channel::fading(fading, chan_seed),
                          ran::TrafficSource::full_buffer());
      }
    }

    cell->link = std::make_unique<ric::Duplex>();
    cell->agent = std::make_unique<ric::GnbAgent>(i, *cell->mac, cell->quotas,
                                                  *cell->link, ric::Duplex::Side::kA);
    if (i == 0) {
      ric_ = std::make_unique<ric::NearRtRic>(*cell->link, ric::Duplex::Side::kB);
    } else {
      ric_->add_link(*cell->link, ric::Duplex::Side::kB);
    }

    if (config_.trace_capacity > 0) {
      cell->ring = std::make_unique<obs::TraceRing>();
      cell->ring->enable(config_.trace_capacity);
    }
    cell->executor = std::make_unique<CellExecutor>("cell" + std::to_string(i));
    cells_.push_back(std::move(cell));
  }

  if (config_.trace_capacity > 0) {
    // Coordinator-side ring: RIC dispatch and SLO evaluation spans, merged
    // into the cross-cell trace as their own process track.
    ric_ring_ = std::make_unique<obs::TraceRing>();
    ric_ring_->enable(config_.trace_capacity);
  }

  // Fleet telemetry plane: one spec per cell, handles resolved here so the
  // per-indication collection path never allocates.
  {
    std::vector<obs::FleetCellSpec> specs;
    specs.reserve(cells_.size());
    for (const auto& cp : cells_) {
      obs::FleetCellSpec spec;
      spec.gnb = config_.gnb_id;
      spec.cell = cp->id;
      spec.mac_domain = "mac" + std::to_string(cp->id);
      spec.agent_domain = "gnb" + std::to_string(cp->id);
      for (const SliceSpec& s : config_.slices) {
        spec.sched_slots.push_back(s.name);
        spec.slice_ids.push_back(std::to_string(s.slice_id));
      }
      spec.n_prbs = config_.mac.n_prbs;
      spec.ring = cp->ring.get();
      specs.push_back(std::move(spec));
    }
    fleet_ = std::make_unique<obs::FleetAggregator>(std::move(specs));
  }
  for (size_t i = 0; i < cells_.size(); ++i) {
    Cell* c = cells_[i].get();
    c->agent->set_telemetry_provider([this, c, i]() -> const obs::CellTelemetry* {
      // Runs on the cell's own worker: reads only cell-i-labeled
      // instruments, writes only this cell's aggregator slot.
      const obs::CellTelemetry& t = fleet_->collect_cell(i);
      c->last_shipped = t;
      c->shipped = true;
      return &t;
    });
  }

  if (config_.slo_window_slots > 0) {
    std::vector<obs::SloSpec> slos =
        config_.slos.empty()
            ? obs::default_slos(static_cast<uint64_t>(config_.mac.slot_us) * 1000)
            : config_.slos;
    slo_ = std::make_unique<obs::SloEngine>(std::move(slos));
  }

  flight_ctx_.seed = config_.seed;
  flight_ctx_.cells = config_.cells;
  flight_ctx_.virtual_time = config_.virtual_time;
  flight_ctx_.scenario = "gnb_deployment";

  if (config_.report_period_slots > 0) {
    status_ = wire_e2_loop();
    if (!status_.ok()) return;
  }

  if (config_.threaded) {
    for (auto& cell : cells_) cell->executor->start();
  }
}

GnbDeployment::~GnbDeployment() {
  for (auto& cell : cells_) {
    if (cell->executor) cell->executor->stop();
  }
}

Status GnbDeployment::wire_e2_loop() {
  auto comm = ric::plugin_sources::comm_framing();
  if (!comm.ok()) return comm.error();
  auto ctl = ric::plugin_sources::control_dispatch();
  if (!ctl.ok()) return ctl.error();
  auto sla = ric::plugin_sources::sla_xapp();
  if (!sla.ok()) return sla.error();
  WARAN_CHECK_OK(ric_->load_comm_plugin(*comm));
  auto xapp = ric_->add_xapp("sla", *sla);
  if (!xapp.ok()) return xapp.error();
  for (auto& cell : cells_) {
    WARAN_CHECK_OK(cell->agent->load_comm_plugin(*comm));
    WARAN_CHECK_OK(cell->agent->load_control_plugin(*ctl));
  }
  return {};
}

Status GnbDeployment::run_slots(uint32_t n) {
  if (!status_.ok()) return status_;
  const uint64_t slot_ns = static_cast<uint64_t>(config_.mac.slot_us) * 1000;
  for (uint32_t k = 0; k < n; ++k) {
    const bool report = config_.report_period_slots > 0 &&
                        (slots_run_ + 1) % config_.report_period_slots == 0;

    // Step phase: every cell runs this slot (and its indication when due)
    // on its own worker; the shard's ring is bound for the task's duration.
    for (auto& cp : cells_) {
      Cell* c = cp.get();
      c->executor->post([c, report] {
        obs::TraceRing::bind_current(c->ring.get());
        Status st = c->mac->run_slot();
        if (!st.ok() && c->status.ok()) c->status = st;
        if (report) {
          // Indication loss is contained, like any E2 frame loss.
          Status sent = c->agent->send_indication();
          (void)sent;
        }
        obs::TraceRing::bind_current(nullptr);
      });
    }
    for (auto& cp : cells_) cp->executor->wait_idle();  // barrier

    if (report) {
      // Coordinator-only RIC turn: drain indications from every cell's
      // link, dispatch xApps, ship control. Then each cell applies its
      // control on its own worker. RIC spans land in the coordinator ring.
      obs::TraceRing::bind_current(ric_ring_.get());
      obs::set_current_slot(slots_run_ + 1);
      Status rs = ric_->poll();
      (void)rs;
      obs::TraceRing::bind_current(nullptr);
      for (auto& cp : cells_) {
        Cell* c = cp.get();
        c->executor->post([c] {
          obs::TraceRing::bind_current(c->ring.get());
          // Pin the thread-local slot to the cell's MAC slot: inline mode
          // would otherwise inherit the coordinator's value and tag these
          // events differently from a worker thread.
          obs::set_current_slot(c->mac->slot());
          Status ps = c->agent->poll();
          (void)ps;
          obs::TraceRing::bind_current(nullptr);
        });
      }
      for (auto& cp : cells_) cp->executor->wait_idle();  // barrier
    }

    if (slo_ != nullptr && (slots_run_ + 1) % config_.slo_window_slots == 0) {
      // SLO window edge: workers are parked, so the coordinator re-collects
      // every cell coherently, judges the window deltas, and opens the next
      // window. Breach journaling/tracing lands in the coordinator ring.
      obs::TraceRing::bind_current(ric_ring_.get());
      obs::set_current_slot(slots_run_ + 1);
      {
        obs::ObsSpan span(obs::TraceCat::kRic, "slo_evaluate",
                          static_cast<uint32_t>(slots_run_ + 1));
        for (size_t i = 0; i < cells_.size(); ++i) fleet_->collect_cell(i);
        last_health_ = slo_->evaluate(*fleet_, window_start_slot_, slots_run_ + 1);
      }
      window_start_slot_ = slots_run_ + 1;
      fleet_->begin_window();
      if (!last_health_.healthy) {
        ++slo_breach_windows_;
        if (breach_hook_) breach_hook_(last_health_);
      }
      obs::TraceRing::bind_current(nullptr);
    }

    // All workers are parked: advancing the clock here is ordered before
    // every read in the next step by the executors' mutex handshake.
    if (config_.virtual_time) Clock::global().advance_ns(slot_ns);
    ++slots_run_;
  }
  for (auto& cp : cells_) {
    if (!cp->status.ok()) return cp->status;
  }
  return {};
}

Status GnbDeployment::run_slots_unsynced(uint32_t n) {
  if (!status_.ok()) return status_;
  const uint32_t period = config_.report_period_slots;
  for (auto& cp : cells_) {
    Cell* c = cp.get();
    c->executor->post([c, n, period] {
      obs::TraceRing::bind_current(c->ring.get());
      for (uint32_t k = 0; k < n; ++k) {
        Status st = c->mac->run_slot();
        if (!st.ok()) {
          if (c->status.ok()) c->status = st;
          break;
        }
        if (period > 0 && c->mac->slot() % period == 0) {
          Status sent = c->agent->send_indication();
          (void)sent;
        }
      }
      obs::TraceRing::bind_current(nullptr);
    });
  }
  for (auto& cp : cells_) cp->executor->wait_idle();

  // Settle the E2 loop once: RIC turn, then control application per cell.
  if (period > 0) {
    obs::TraceRing::bind_current(ric_ring_.get());
    Status rs = ric_->poll();
    (void)rs;
    obs::TraceRing::bind_current(nullptr);
    for (auto& cp : cells_) {
      Cell* c = cp.get();
      c->executor->post([c] {
        obs::TraceRing::bind_current(c->ring.get());
        obs::set_current_slot(c->mac->slot());
        Status ps = c->agent->poll();
        (void)ps;
        obs::TraceRing::bind_current(nullptr);
      });
    }
    for (auto& cp : cells_) cp->executor->wait_idle();
  }

  slots_run_ += n;
  for (auto& cp : cells_) {
    if (!cp->status.ok()) return cp->status;
  }
  return {};
}

ran::GnbMac& GnbDeployment::mac(uint32_t cell) { return *cells_.at(cell)->mac; }
ric::GnbAgent& GnbDeployment::agent(uint32_t cell) { return *cells_.at(cell)->agent; }
ric::Duplex& GnbDeployment::link(uint32_t cell) { return *cells_.at(cell)->link; }
plugin::PluginManager& GnbDeployment::sched_plugins(uint32_t cell) {
  return *cells_.at(cell)->sched_plugins;
}
CellExecutor& GnbDeployment::executor(uint32_t cell) {
  return *cells_.at(cell)->executor;
}
obs::TraceRing* GnbDeployment::trace_ring(uint32_t cell) {
  return cells_.at(cell)->ring.get();
}

obs::FleetView GnbDeployment::shipped_view() const {
  obs::FleetView view;
  for (const auto& cp : cells_) {
    if (cp->shipped) view.update(cp->last_shipped);
  }
  return view;
}

std::vector<obs::MergedTrack> GnbDeployment::trace_tracks() const {
  std::vector<obs::MergedTrack> tracks;
  tracks.reserve(cells_.size() + 1);
  for (const auto& cp : cells_) {
    tracks.push_back({"cell" + std::to_string(cp->id), cp->id + 1, cp->ring.get()});
  }
  if (ric_ring_ != nullptr) {
    tracks.push_back(
        {"ric", static_cast<uint32_t>(cells_.size()) + 1, ric_ring_.get()});
  }
  return tracks;
}

std::string GnbDeployment::export_merged_trace() const {
  return obs::export_merged_chrome_trace(trace_tracks());
}

std::string GnbDeployment::capture_flight_bundle(std::string_view reason) const {
  obs::FlightRecorder recorder(flight_ctx_, /*trace_window_slots=*/16);
  return recorder.capture(reason, last_health_, *fleet_, trace_tracks(),
                          slots_run_);
}

uint64_t GnbDeployment::trace_hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    const unsigned char* p = reinterpret_cast<const unsigned char*>(&v);
    for (size_t b = 0; b < sizeof(v); ++b) {
      h ^= p[b];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& cp : cells_) {
    mix(cp->ring != nullptr ? cp->ring->content_hash() : 0);
  }
  mix(ric_ring_ != nullptr ? ric_ring_->content_hash() : 0);
  return h;
}

std::string GnbDeployment::digest() const {
  std::string out = obs::MetricsRegistry::global().to_json();
  char buf[256];
  for (const auto& cp : cells_) {
    std::snprintf(buf, sizeof(buf), "\ncell%u slot=%" PRIu64 " ues=%zu", cp->id,
                  cp->mac->slot(), cp->mac->ue_rntis().size());
    out += buf;
    for (uint32_t sid : cp->mac->slice_ids()) {
      const ran::SliceStats* st = cp->mac->slice_stats(sid);
      std::snprintf(buf, sizeof(buf),
                    " slice%u{sched=%" PRIu64 " faults=%" PRIu64 " sanitized=%" PRIu64
                    " quota=%u}",
                    sid, st->slots_scheduled, st->scheduler_faults,
                    st->sanitized_allocs, st->last_quota);
      out += buf;
    }
    if (cp->agent != nullptr) {
      const ric::AgentStats& as = cp->agent->stats();
      std::snprintf(buf, sizeof(buf),
                    " agent{ind=%" PRIu64 " rx=%" PRIu64 " rej=%" PRIu64
                    " quota=%" PRIu64 " fuel=%" PRIu64 "}",
                    as.indications_sent, as.frames_received, as.frames_rejected,
                    as.quota_updates, as.plugin_fuel_used);
      out += buf;
    }
  }
  if (ric_ != nullptr) {
    const ric::RicStats& rs = ric_->stats();
    std::snprintf(buf, sizeof(buf),
                  "\nric{ind=%" PRIu64 " rej=%" PRIu64 " ctl=%" PRIu64
                  " actions=%" PRIu64 " faults=%" PRIu64 " fuel=%" PRIu64 "}",
                  rs.indications_processed, rs.frames_rejected, rs.control_frames_sent,
                  rs.actions_sent, rs.xapp_faults, rs.xapp_fuel_used);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "\ntrace=%016" PRIx64 "\n", trace_hash());
  out += buf;
  return out;
}

}  // namespace waran::rt
