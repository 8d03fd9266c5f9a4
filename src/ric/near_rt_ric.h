// Near-RT RIC host (paper Fig. 4, right): receives indications through its
// communication plugin, fans them out to the xApp plugins in registration
// order, aggregates the control actions they emit, and sends them back
// framed. xApps are fully sandboxed: a crashing or garbage-emitting xApp is
// counted and skipped, never taking the RIC down; repeated offenders are
// quarantined by the plugin manager.
//
// Host functions exposed to xApps (module "env"):
//   xapp_send(dst_index, ptr, len) — inter-xApp messaging; delivered after
//   the current dispatch round to the destination's exported `on_message`.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "obs/anomaly.h"
#include "plugin/manager.h"
#include "ric/e2lite.h"
#include "ric/transport.h"

namespace waran::ric {

struct RicStats {
  uint64_t indications_processed = 0;
  uint64_t telemetry_updates = 0;  // indications carrying a telemetry block
  uint64_t frames_rejected = 0;   // comm-plugin sanitization drops
  uint64_t control_frames_sent = 0;
  uint64_t actions_sent = 0;
  uint64_t xapp_faults = 0;       // xApp call errors + undecodable outputs
  uint64_t messages_delivered = 0;
  // Fuel the sandboxed xApps consumed of the near-RT budget: the sum of the
  // xApp slots' CallCostAcc::total_fuel(), filled by stats().
  uint64_t xapp_fuel_used = 0;
};

class NearRtRic {
 public:
  /// A RIC serves one or more E2 nodes (gNBs); the constructor wires the
  /// first link, add_link attaches more. Control actions always return on
  /// the link whose indication produced them.
  NearRtRic(Duplex& link, Duplex::Side side) {
    plugins_.set_domain("ric");
    add_link(link, side);
  }

  void add_link(Duplex& link, Duplex::Side side) { links_.push_back({&link, side}); }
  size_t link_count() const { return links_.size(); }

  Status load_comm_plugin(std::span<const uint8_t> module_bytes);

  /// Registers an xApp; dispatch order is registration order, and the index
  /// returned is the xApp's messaging address for xapp_send.
  Result<uint32_t> add_xapp(const std::string& name, std::span<const uint8_t> module_bytes);

  /// Drains inbound frames, dispatches indications to xApps, applies
  /// inter-xApp messaging, and ships aggregated control actions.
  Status poll();

  RicStats stats() const;
  plugin::PluginManager& plugins() { return plugins_; }
  const std::vector<std::string>& xapp_names() const { return xapps_; }

  /// Last batch of actions shipped (for tests/benches).
  const std::vector<ControlAction>& last_actions() const { return last_actions_; }

  /// The RIC's reconstructed fleet view, rebuilt purely from the telemetry
  /// blocks that survived the wire (frame -> unframe -> decode). After a
  /// report boundary this must equal the deployment's ground-truth
  /// aggregation exactly — the fleet plane's end-to-end invariant.
  const obs::FleetView& fleet_view() const { return fleet_view_; }

  /// Trap/anomaly journal entries recorded under this RIC's observability
  /// domain: every xApp trap, fuel/deadline exhaustion and quarantine, with
  /// the xApp slot name and the MAC slot that was executing.
  std::vector<obs::AnomalyRecord> anomalies() const {
    return obs::AnomalyJournal::global().snapshot(plugins_.domain());
  }

 private:
  struct LinkRef {
    Duplex* link;
    Duplex::Side side;
  };

  Status dispatch_indication(std::span<const uint8_t> payload, LinkRef& origin);
  void deliver_messages();

  std::vector<LinkRef> links_;
  plugin::PluginManager plugins_;
  std::vector<std::string> xapps_;             // slot names in dispatch order
  std::vector<std::deque<std::vector<uint8_t>>> inboxes_;
  RicStats stats_;
  std::vector<ControlAction> last_actions_;
  obs::FleetView fleet_view_;
};

}  // namespace waran::ric
