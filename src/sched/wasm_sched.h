// The WA-RAN bridge: an IntraSliceScheduler whose decisions come from a
// Wasm plugin slot. Each schedule() call serializes the request in the flat
// wire format (codec/wire.h), crosses the sandbox boundary through the
// plugin's `schedule` export, and decodes the plugin's response — the
// exact data path the paper's Fig. 5d execution-time measurement covers
// ("includes the overhead of data serialization and de-serialization on
// the gNB host").
#pragma once

#include <string>

#include "plugin/manager.h"
#include "ran/scheduler_iface.h"

namespace waran::sched {

class WasmIntraScheduler final : public ran::IntraSliceScheduler {
 public:
  /// `manager` must outlive this scheduler. `slot` names the plugin slot
  /// (swappable at runtime via the manager without touching the MAC).
  WasmIntraScheduler(plugin::PluginManager& manager, std::string slot)
      : manager_(manager), slot_(std::move(slot)), name_("wasm:" + slot_) {}

  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override;

  const char* name() const override { return name_.c_str(); }
  const std::string& slot() const { return slot_; }

 private:
  plugin::PluginManager& manager_;
  std::string slot_;
  std::string name_;
};

}  // namespace waran::sched
