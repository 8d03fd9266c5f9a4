#include "ran/mac.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "obs/anomaly.h"
#include "obs/trace.h"
#include "ran/phy_tables.h"

namespace waran::ran {

GnbMac::GnbMac(MacConfig config) : config_(config), error_rng_(config.error_seed) {
  auto& reg = obs::MetricsRegistry::global();
  m_slots_ = &reg.counter("waran_mac_slots_total");
  m_slot_overruns_ = &reg.counter("waran_mac_slot_overrun_total");
  m_slot_wall_ns_ = &reg.histogram("waran_mac_slot_wall_ns");
  const std::string cell = std::to_string(config_.cell);
  m_cell_slots_ = &reg.counter("waran_cell_slots_total", {{"cell", cell}});
  m_cell_slot_overruns_ =
      &reg.counter("waran_cell_slot_overrun_total", {{"cell", cell}});
  m_cell_slot_wall_ns_ = &reg.histogram("waran_cell_slot_wall_ns", {{"cell", cell}});
}

void GnbMac::add_slice(const SliceConfig& config,
                       std::unique_ptr<IntraSliceScheduler> scheduler) {
  assert(!slices_.contains(config.slice_id));
  SliceState state;
  state.config = config;
  state.scheduler = std::move(scheduler);
  auto& reg = obs::MetricsRegistry::global();
  // Labels hold string_views: both strings must outlive `labels`.
  const std::string cell = std::to_string(config_.cell);
  const std::string id = std::to_string(config.slice_id);
  obs::Labels labels = {{"cell", cell}, {"slice", id}};
  state.m_prb_granted = &reg.counter("waran_mac_prb_granted_total", labels);
  state.m_sched_faults = &reg.counter("waran_mac_sched_faults_total", labels);
  state.m_sanitized = &reg.counter("waran_mac_sanitized_allocs_total", labels);
  state.m_slots_scheduled = &reg.counter("waran_mac_slots_scheduled_total", labels);
  slices_.emplace(config.slice_id, std::move(state));
  order_.clear();
  for (auto& [_, slice] : slices_) order_.push_back(&slice);
  demands_.resize(order_.size());
  quotas_.resize(order_.size());
}

Status GnbMac::set_intra_scheduler(uint32_t slice_id,
                                   std::unique_ptr<IntraSliceScheduler> scheduler) {
  auto it = slices_.find(slice_id);
  if (it == slices_.end()) return Error::not_found("no such slice");
  it->second.scheduler = std::move(scheduler);
  return {};
}

void GnbMac::set_inter_scheduler(std::unique_ptr<InterSliceScheduler> scheduler) {
  inter_ = std::move(scheduler);
}

void GnbMac::set_mcs_table(McsTable table) {
  mcs_table_ = table;
  for (UeEntry* e : cell_ues_) e->ctx->channel().set_mcs_table(table);
}

uint32_t GnbMac::add_ue(uint32_t slice_id, Channel channel, TrafficSource traffic) {
  assert(slices_.contains(slice_id));
  channel.set_mcs_table(mcs_table_);
  uint32_t rnti = next_rnti_++;
  // The 1 s rate window holds one entry per slot, plus its inclusive edge.
  const size_t window_entries = 1'000'000 / std::max<uint32_t>(config_.slot_us, 1) + 2;
  UeEntry& e = ues_[rnti];
  e.rnti = rnti;
  e.ctx = std::make_unique<UeContext>(rnti, slice_id, std::move(channel), std::move(traffic),
                                      config_.pf_time_constant_slots, window_entries);
  // RNTIs only grow, so appending keeps both arrays in rnti order.
  cell_ues_.push_back(&e);
  auto slice = slices_.find(slice_id);
  if (slice != slices_.end()) slice->second.ues.push_back(&e);
  return rnti;
}

Status GnbMac::remove_ue(uint32_t rnti) {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return Error::not_found("no such UE");
  UeEntry* e = &it->second;
  std::erase(cell_ues_, e);
  auto slice = slices_.find(e->ctx->slice_id());
  if (slice != slices_.end()) std::erase(slice->second.ues, e);
  ues_.erase(it);
  return {};
}

void GnbMac::build_request(SliceState& slice, uint32_t quota) {
  codec::SchedRequest& req = slice.req;
  req.slot = static_cast<uint32_t>(slot_);
  req.prb_quota = quota;
  req.ues.clear();
  double slots_per_s = 1e6 / config_.slot_us;
  for (const UeEntry* e : slice.ues) {
    const UeContext& ue = *e->ctx;
    if (ue.buffer_bytes() == 0) continue;
    codec::UeInfo& info = req.ues.emplace_back();
    info.rnti = e->rnti;
    info.cqi = ue.channel().cqi();
    info.mcs = ue.channel().mcs();
    info.buffer_bytes = ue.buffer_bytes();
    info.tbs_per_prb = e->tbs_per_prb;
    info.avg_tput_bps = ue.avg_tput_bps();
    info.achievable_bps = transport_block_bits(info.mcs, quota, mcs_table_) * slots_per_s;
  }
}

codec::SchedResponse GnbMac::fallback_round_robin(const codec::SchedRequest& req) {
  codec::SchedResponse resp;
  if (req.ues.empty() || req.prb_quota == 0) return resp;
  uint32_t n = static_cast<uint32_t>(req.ues.size());
  uint32_t share = req.prb_quota / n;
  uint32_t extra = req.prb_quota % n;
  // Rotate the starting UE by slot so leftovers distribute evenly.
  uint32_t start = req.slot % n;
  for (uint32_t i = 0; i < n; ++i) {
    const codec::UeInfo& ue = req.ues[(start + i) % n];
    uint32_t prbs = share + (i < extra ? 1 : 0);
    if (prbs > 0) resp.allocs.push_back({ue.rnti, prbs});
  }
  return resp;
}

void GnbMac::apply_response(SliceState& slice, const codec::SchedResponse& resp) {
  uint32_t remaining = slice.req.prb_quota;
  uint64_t sanitized_here = 0;
  for (const codec::SchedAlloc& alloc : resp.allocs) {
    if (remaining == 0) break;
    if (alloc.prbs == 0) continue;
    auto it = std::lower_bound(
        slice.ues.begin(), slice.ues.end(), alloc.rnti,
        [](const UeEntry* e, uint32_t rnti) { return e->rnti < rnti; });
    if (it == slice.ues.end() || (*it)->rnti != alloc.rnti ||
        ((*it)->ctx->buffer_bytes() == 0 && !(*it)->ctx->harq_pending())) {
      // Plugin referenced a UE it does not own / that asked for nothing:
      // sanitize by dropping the grant (§6A).
      ++sanitized_here;
      continue;
    }
    uint32_t prbs = alloc.prbs;
    if (prbs > remaining) {
      // Over-allocation: clamp rather than fault.
      ++sanitized_here;
      prbs = remaining;
    }
    remaining -= prbs;
    UeEntry& entry = **it;
    UeContext& ue = *entry.ctx;

    if (config_.channel_errors && ue.harq_pending()) {
      // The grant retransmits the pending TB. Chase combining: every
      // retransmission lowers the residual error multiplicatively.
      double p_fail = ue.channel().bler();
      for (uint32_t a = 0; a < ue.harq_attempts(); ++a) p_fail *= ue.channel().bler();
      if (error_rng_.uniform() < p_fail) {
        ue.harq_retry();
        ++slice.stats.harq_retx;
        if (ue.harq_attempts() > config_.max_harq_attempts) {
          ue.harq_finish();  // give up; upper layers would recover
          ++slice.stats.tb_drops;
        }
      } else {
        entry.harq_bits += ue.harq_finish();
      }
      continue;
    }

    uint32_t tbs = transport_block_bits(ue.channel().mcs(), prbs, mcs_table_);
    uint32_t deliverable = std::min<uint64_t>(tbs, static_cast<uint64_t>(ue.buffer_bytes()) * 8);
    if (config_.channel_errors && error_rng_.uniform() < ue.channel().bler()) {
      // The TB leaves the RLC queue either way (it was transmitted); with
      // HARQ it parks in the retransmission buffer, without it it is lost.
      ue.harq_start(deliverable);
      if (config_.enable_harq) {
        ++slice.stats.harq_retx;
      } else {
        ue.harq_finish();
        ++slice.stats.tb_drops;
      }
    } else {
      entry.fresh_bits += deliverable;
    }
  }
  slice.stats.sanitized_allocs += sanitized_here;
  slice.m_sanitized->add(sanitized_here);
  if (sanitized_here > 0) {
    // One journal entry per sanitized response (not per grant): the journal
    // answers "which slice misbehaved in which slot", the counter above
    // carries the magnitude.
    obs::AnomalyJournal::global().record(
        obs::AnomalyKind::kSanitized, config_.domain,
        "slice " + std::to_string(slice.config.slice_id),
        std::to_string(sanitized_here) + " grant(s) dropped or clamped");
  }
  slice.m_prb_granted->add(slice.req.prb_quota - remaining);
}

Status GnbMac::run_slot() {
  if (inter_ == nullptr) return Error::state("no inter-slice scheduler configured");
  // Slot alignment for every span/anomaly recorded below this frame, and
  // the outermost span of the slot trace hierarchy.
  obs::set_current_slot(slot_);
  obs::ObsSpan slot_span(obs::TraceCat::kMac, "slot",
                         static_cast<uint32_t>(slot_));
  const uint64_t slot_t0 = obs::now_ns();

  // Phase 1: arrivals + channel. Each UE's one-PRB TBS is computed once
  // here for the demand and request phases.
  for (UeEntry* e : cell_ues_) {
    e->ctx->begin_slot(config_.slot_us);
    e->tbs_per_prb = transport_block_bits(e->ctx->channel().mcs(), 1, mcs_table_);
  }

  // Phase 2: inter-slice quotas.
  double now = now_s();
  for (size_t i = 0; i < order_.size(); ++i) {
    const SliceState& slice = *order_[i];
    SliceDemand d;
    d.config = &slice.config;
    double tbs_sum = 0;
    for (const UeEntry* e : slice.ues) {
      const UeContext& ue = *e->ctx;
      d.backlog_bytes += ue.buffer_bytes();
      d.current_rate_bps += ue.rate_bps(now);
      if (ue.buffer_bytes() > 0) {
        ++d.active_ues;
        tbs_sum += e->tbs_per_prb;
      }
    }
    if (d.active_ues > 0) d.est_bits_per_prb = tbs_sum / d.active_ues;
    demands_[i] = d;
  }
  {
    obs::ObsSpan inter_span(obs::TraceCat::kMac, "inter_slice");
    inter_->allocate(config_.n_prbs, demands_, quotas_);
  }

  // Phases 3+4 per slice. A slice with active UEs always yields a
  // non-empty request: its UEs' buffers only change in its own apply.
  for (size_t i = 0; i < order_.size(); ++i) {
    SliceState& slice = *order_[i];
    slice.stats.last_quota = quotas_[i];
    if (quotas_[i] == 0 || demands_[i].active_ues == 0) continue;
    build_request(slice, quotas_[i]);
    ++slice.stats.slots_scheduled;
    slice.m_slots_scheduled->add();

    obs::ObsSpan slice_span(
        obs::TraceCat::kSlice,
        slice.config.name.empty() ? std::string_view("slice") : slice.config.name,
        slice.config.slice_id);
    auto result = slice.scheduler->schedule(slice.req);
    if (result.ok()) {
      apply_response(slice, *result);
    } else {
      // Contained fault: host-side default scheduler takes this slot (§6A).
      ++slice.stats.scheduler_faults;
      slice.m_sched_faults->add();
      slice.stats.last_error = result.error().message;
      WARAN_LOG(kDebug, "mac",
                "slice " << slice.config.slice_id
                         << " scheduler fault: " << result.error().message);
      apply_response(slice, fallback_round_robin(slice.req));
    }
  }

  // Deliver (every UE ticks its EWMA, scheduled or not).
  double slots_per_s = 1e6 / config_.slot_us;
  double deliver_time = now_s();
  for (UeEntry* e : cell_ues_) {
    e->ctx->complete_slot(e->fresh_bits, e->harq_bits, deliver_time, slots_per_s);
    e->fresh_bits = 0;
    e->harq_bits = 0;
  }

  // Slot-deadline accounting: in a real-time deployment the slot budget is
  // config_.slot_us of wall time; an overrun is the anomaly the paper's
  // fuel/deadline machinery exists to prevent.
  uint64_t slot_wall_ns = obs::now_ns() - slot_t0;
  if (slot_padding_) slot_wall_ns += slot_padding_();
  m_slots_->add();
  m_slot_wall_ns_->add(slot_wall_ns);
  m_cell_slots_->add();
  m_cell_slot_wall_ns_->add(slot_wall_ns);
  if (slot_wall_ns > static_cast<uint64_t>(config_.slot_us) * 1000) {
    m_slot_overruns_->add();
    m_cell_slot_overruns_->add();
    obs::AnomalyJournal::global().record(
        obs::AnomalyKind::kSlotOverrun, config_.domain, "slot",
        "slot processing took " + std::to_string(slot_wall_ns) + " ns (budget " +
            std::to_string(static_cast<uint64_t>(config_.slot_us) * 1000) + " ns)");
  }

  ++slot_;
  return {};
}

Status GnbMac::run_slots(uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    WARAN_CHECK_OK(run_slot());
  }
  return {};
}

const UeContext* GnbMac::ue(uint32_t rnti) const {
  auto it = ues_.find(rnti);
  return it == ues_.end() ? nullptr : it->second.ctx.get();
}

UeContext* GnbMac::ue(uint32_t rnti) {
  auto it = ues_.find(rnti);
  return it == ues_.end() ? nullptr : it->second.ctx.get();
}

std::vector<uint32_t> GnbMac::ue_rntis() const {
  std::vector<uint32_t> rntis;
  rntis.reserve(cell_ues_.size());
  for (const UeEntry* e : cell_ues_) rntis.push_back(e->rnti);
  return rntis;
}

double GnbMac::slice_rate_bps(uint32_t slice_id) const {
  auto it = slices_.find(slice_id);
  if (it == slices_.end()) return 0.0;
  double sum = 0;
  double now = now_s();
  for (const UeEntry* e : it->second.ues) sum += e->ctx->rate_bps(now);
  return sum;
}

const SliceStats* GnbMac::slice_stats(uint32_t slice_id) const {
  auto it = slices_.find(slice_id);
  return it == slices_.end() ? nullptr : &it->second.stats;
}

const SliceConfig* GnbMac::slice_config(uint32_t slice_id) const {
  auto it = slices_.find(slice_id);
  return it == slices_.end() ? nullptr : &it->second.config;
}

std::vector<uint32_t> GnbMac::slice_ids() const {
  std::vector<uint32_t> ids;
  ids.reserve(slices_.size());
  for (const auto& [id, _] : slices_) ids.push_back(id);
  return ids;
}

IntraSliceScheduler* GnbMac::intra_scheduler(uint32_t slice_id) {
  auto it = slices_.find(slice_id);
  return it == slices_.end() ? nullptr : it->second.scheduler.get();
}

}  // namespace waran::ran
