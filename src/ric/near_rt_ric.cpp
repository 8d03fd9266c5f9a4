#include "ric/near_rt_ric.h"

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace waran::ric {

namespace {

struct RicMetrics {
  obs::Counter& indications = obs::MetricsRegistry::global().counter(
      "waran_ric_indications_total");
  obs::Counter& actions =
      obs::MetricsRegistry::global().counter("waran_ric_actions_sent_total");
  obs::Counter& frames_rejected = obs::MetricsRegistry::global().counter(
      "waran_ric_frames_rejected_total");
  obs::Counter& garbage_outputs = obs::MetricsRegistry::global().counter(
      "waran_ric_xapp_garbage_outputs_total");
  static RicMetrics& get() {
    static RicMetrics m;
    return m;
  }
};

}  // namespace

using wasm::FuncType;
using wasm::HostContext;
using wasm::HostFunc;
using wasm::ValType;
using wasm::Value;

Status NearRtRic::load_comm_plugin(std::span<const uint8_t> module_bytes) {
  if (plugins_.has("comm")) return plugins_.swap("comm", module_bytes);
  return plugins_.install("comm", module_bytes);
}

Result<uint32_t> NearRtRic::add_xapp(const std::string& name,
                                     std::span<const uint8_t> module_bytes) {
  std::string slot = "xapp:" + name;
  if (plugins_.has(slot)) return Error::state("xApp already registered: " + name);

  wasm::Linker host;
  host.register_func(
      "env", "xapp_send",
      HostFunc{FuncType{{ValType::kI32, ValType::kI32, ValType::kI32}, {}},
               [this](HostContext& ctx, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 uint32_t dst = args[0].as_u32();
                 uint32_t ptr = args[1].as_u32();
                 uint32_t len = args[2].as_u32();
                 if (dst >= inboxes_.size()) {
                   return Error::trap("xapp_send: destination out of range");
                 }
                 if (len > (1u << 16)) {
                   return Error::trap("xapp_send: message too large");
                 }
                 std::vector<uint8_t> msg(len);
                 WARAN_CHECK_OK(ctx.instance.memory()->read_bytes(ptr, msg));
                 inboxes_[dst].push_back(std::move(msg));
                 return std::optional<Value>{};
               }});

  WARAN_CHECK_OK(plugins_.install(slot, module_bytes, host));
  xapps_.push_back(slot);
  inboxes_.emplace_back();
  return static_cast<uint32_t>(xapps_.size() - 1);
}

RicStats NearRtRic::stats() const {
  RicStats s = stats_;
  for (const std::string& slot : xapps_) {
    if (const CallCostAcc* c = plugins_.cost(slot)) s.xapp_fuel_used += c->total_fuel();
  }
  return s;
}

Status NearRtRic::dispatch_indication(std::span<const uint8_t> payload, LinkRef& origin) {
  obs::ObsSpan span(obs::TraceCat::kRic, "dispatch_indication",
                    static_cast<uint32_t>(payload.size()));
  ++stats_.indications_processed;
  RicMetrics::get().indications.add();
  // Host-side decode feeds the fleet reconstruction; the xApps still get
  // the raw payload (they own their own parsing). A payload that fails the
  // host decode just carries no telemetry — dispatch continues.
  if (auto decoded = decode_indication(payload);
      decoded.ok() && decoded->telemetry.has_value()) {
    fleet_view_.update(*decoded->telemetry);
    ++stats_.telemetry_updates;
  }
  std::vector<ControlAction> aggregated;
  for (const std::string& slot : xapps_) {
    auto out = plugins_.call(slot, "on_indication", payload);
    if (!out.ok()) {
      ++stats_.xapp_faults;
      WARAN_LOG(kDebug, "ric", slot << " fault: " << out.error().message);
      continue;
    }
    if (out->empty()) continue;
    auto actions = decode_control(*out);
    if (!actions.ok()) {
      // xApp emitted garbage: sanitize by dropping its contribution.
      ++stats_.xapp_faults;
      RicMetrics::get().garbage_outputs.add();
      obs::AnomalyJournal::global().record(obs::AnomalyKind::kSanitized,
                                           plugins_.domain(), slot,
                                           actions.error().message);
      continue;
    }
    aggregated.insert(aggregated.end(), actions->begin(), actions->end());
  }
  deliver_messages();

  if (!aggregated.empty()) {
    std::vector<uint8_t> payload_out = encode_control(aggregated);
    WARAN_TRY(frame, plugins_.call("comm", "frame", payload_out));
    origin.link->send(origin.side, std::move(frame));
    ++stats_.control_frames_sent;
    stats_.actions_sent += aggregated.size();
    RicMetrics::get().actions.add(aggregated.size());
  }
  last_actions_ = std::move(aggregated);
  return {};
}

void NearRtRic::deliver_messages() {
  // Deliver until quiescent, with a hard round bound so two xApps cannot
  // ping-pong forever.
  for (int round = 0; round < 8; ++round) {
    bool any = false;
    for (size_t i = 0; i < xapps_.size(); ++i) {
      while (!inboxes_[i].empty()) {
        std::vector<uint8_t> msg = std::move(inboxes_[i].front());
        inboxes_[i].pop_front();
        any = true;
        plugin::Plugin* p = plugins_.plugin(xapps_[i]);
        if (p == nullptr || !p->has_export("on_message")) continue;
        auto r = plugins_.call(xapps_[i], "on_message", msg);
        if (!r.ok()) {
          ++stats_.xapp_faults;
        } else {
          ++stats_.messages_delivered;
        }
      }
    }
    if (!any) break;
  }
}

Status NearRtRic::poll() {
  if (!plugins_.has("comm")) return Error::state("no communication plugin loaded");
  for (LinkRef& link : links_) {
    while (auto frame = link.link->receive(link.side)) {
      auto payload = plugins_.call("comm", "unframe", *frame);
      if (!payload.ok()) {
        ++stats_.frames_rejected;
        RicMetrics::get().frames_rejected.add();
        obs::AnomalyJournal::global().record(obs::AnomalyKind::kFrameRejected,
                                             plugins_.domain(), "comm",
                                             payload.error().message);
        continue;
      }
      auto type = peek_msg_type(*payload);
      if (!type.ok()) {
        ++stats_.frames_rejected;
        RicMetrics::get().frames_rejected.add();
        continue;
      }
      if (*type == kMsgIndication) {
        WARAN_CHECK_OK(dispatch_indication(*payload, link));
      }
      // Control frames arriving at the RIC are ignored (loop prevention).
    }
  }
  return {};
}

}  // namespace waran::ric
