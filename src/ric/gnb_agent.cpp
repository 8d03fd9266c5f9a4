#include "ric/gnb_agent.h"

#include "common/log.h"
#include "obs/trace.h"

namespace waran::ric {

using wasm::FuncType;
using wasm::HostContext;
using wasm::HostFunc;
using wasm::ValType;
using wasm::Value;

GnbAgent::GnbAgent(uint32_t cell_id, ran::GnbMac& mac, QuotaTableInterScheduler* quotas,
                   Duplex& link, Duplex::Side side)
    : cell_id_(cell_id), mac_(mac), quotas_(quotas), link_(link), side_(side) {
  plugins_.set_domain("gnb" + std::to_string(cell_id));
}

Status GnbAgent::load_comm_plugin(std::span<const uint8_t> module_bytes) {
  if (plugins_.has("comm")) return plugins_.swap("comm", module_bytes);
  return plugins_.install("comm", module_bytes);
}

wasm::Linker GnbAgent::control_host_functions() {
  wasm::Linker linker;
  linker.register_func(
      "env", "ran_set_quota",
      HostFunc{FuncType{{ValType::kI32, ValType::kI32}, {}},
               [this](HostContext&, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 if (quotas_ != nullptr) {
                   quotas_->set_quota(args[0].as_u32(), args[1].as_u32());
                 }
                 ++stats_.quota_updates;
                 return std::optional<Value>{};
               }});
  linker.register_func(
      "env", "ran_set_cqi_table",
      HostFunc{FuncType{{ValType::kI32}, {}},
               [this](HostContext&, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 uint32_t index = args[0].as_u32();
                 if (index > 1) return std::optional<Value>{};  // unknown: ignore
                 cqi_table_index_ = index;
                 mac_.set_mcs_table(index == 1 ? ran::McsTable::kQam256
                                               : ran::McsTable::kQam64);
                 ++stats_.cqi_table_updates;
                 return std::optional<Value>{};
               }});
  linker.register_func(
      "env", "ran_set_report_period",
      HostFunc{FuncType{{ValType::kI32}, {}},
               [this](HostContext&, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 uint32_t period = args[0].as_u32();
                 if (period >= 1 && period <= 100000) {
                   report_period_slots_ = period;
                   ++stats_.period_updates;
                 }
                 return std::optional<Value>{};
               }});
  linker.register_func(
      "env", "ran_handover",
      HostFunc{FuncType{{ValType::kI32, ValType::kI32}, {}},
               [this](HostContext&, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 ++stats_.handovers;
                 if (on_handover_) on_handover_(args[0].as_u32(), args[1].as_u32());
                 return std::optional<Value>{};
               }});
  return linker;
}

AgentStats GnbAgent::stats() const {
  AgentStats s = stats_;
  for (const char* slot : {"comm", "ctl"}) {
    if (const CallCostAcc* c = plugins_.cost(slot)) s.plugin_fuel_used += c->total_fuel();
  }
  return s;
}

Status GnbAgent::load_control_plugin(std::span<const uint8_t> module_bytes) {
  wasm::Linker host = control_host_functions();
  if (plugins_.has("ctl")) return plugins_.swap("ctl", module_bytes, host);
  return plugins_.install("ctl", module_bytes, host);
}

Status GnbAgent::send_indication() {
  if (!plugins_.has("comm")) return Error::state("no communication plugin loaded");
  obs::ObsSpan span(obs::TraceCat::kAgent, "send_indication");

  IndicationReport report;
  for (uint32_t slice_id : mac_.slice_ids()) {
    const ran::SliceConfig* cfg = mac_.slice_config(slice_id);
    const ran::SliceStats* stats = mac_.slice_stats(slice_id);
    SliceReport s;
    s.slice_id = slice_id;
    s.quota_prbs = stats != nullptr ? stats->last_quota : 0;
    s.target_bps = cfg != nullptr ? cfg->target_rate_bps : 0;
    s.rate_bps = mac_.slice_rate_bps(slice_id);
    report.slices.push_back(s);
  }
  for (uint32_t rnti : mac_.ue_rntis()) {
    const ran::UeContext* ue = mac_.ue(rnti);
    UeReport u;
    u.rnti = rnti;
    u.serving_cell = cell_id_;
    u.cqi = ue->channel().cqi();
    auto it = radio_.find(rnti);
    if (it != radio_.end()) {
      u.rsrp_serving_dbm = it->second.rsrp_serving_dbm;
      u.rsrp_neighbor_dbm = it->second.rsrp_neighbor_dbm;
      u.neighbor_cell = it->second.neighbor_cell;
    }
    report.ues.push_back(u);
  }
  if (telemetry_provider_) {
    // Collected here, on the agent's own thread, so the per-cell summary is
    // coherent with the slots this cell has actually finished.
    if (const obs::CellTelemetry* t = telemetry_provider_()) report.telemetry = *t;
  }

  std::vector<uint8_t> payload = encode_indication(report);
  auto frame = plugins_.call("comm", "frame", payload);
  if (!frame.ok()) return frame.error();
  link_.send(side_, std::move(*frame));
  ++stats_.indications_sent;
  return {};
}

Status GnbAgent::poll() {
  while (auto frame = link_.receive(side_)) {
    obs::ObsSpan span(obs::TraceCat::kAgent, "handle_frame",
                      static_cast<uint32_t>(frame->size()));
    ++stats_.frames_received;
    auto payload = plugins_.call("comm", "unframe", *frame);
    if (!payload.ok()) {
      // The sandbox rejected the frame (bad magic/length/checksum): drop it
      // before any host-side parsing touches it.
      ++stats_.frames_rejected;
      obs::AnomalyJournal::global().record(obs::AnomalyKind::kFrameRejected,
                                           plugins_.domain(), "comm",
                                           payload.error().message);
      continue;
    }
    auto type = peek_msg_type(*payload);
    if (!type.ok() || *type != kMsgControl) {
      ++stats_.frames_rejected;
      continue;
    }
    if (!plugins_.has("ctl")) continue;
    auto applied = plugins_.call("ctl", "apply_control", *payload);
    if (!applied.ok()) {
      ++stats_.frames_rejected;
      WARAN_LOG(kDebug, "agent", "control plugin fault: " << applied.error().message);
    }
  }
  return {};
}

}  // namespace waran::ric
