// MVNO slicing example (the paper's §4A use case, end to end):
// an MNO's gNB hosts three MVNOs, each bringing its *own* intra-slice
// scheduler as a Wasm plugin, with targets enforced by the MNO's
// inter-slice scheduler. Shows onboarding, per-slice policy diversity, and
// off-boarding an MVNO at runtime.
//
// Run: ./build/examples/mvno_slicing
#include <cstdio>
#include <memory>

#include "plugin/manager.h"
#include "ran/mac.h"
#include "sched/native.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"

using namespace waran;

namespace {

void print_rates(const ran::GnbMac& mac, const char* when) {
  std::printf("%-28s", when);
  for (uint32_t id : mac.slice_ids()) {
    std::printf("  slice %u: %6.2f Mb/s", id, mac.slice_rate_bps(id) / 1e6);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  ran::GnbMac mac(ran::MacConfig{});  // 52 PRB / 10 MHz, 1 ms slots
  mac.set_inter_scheduler(std::make_unique<sched::TargetRateInterScheduler>(1000.0));

  plugin::PluginManager mgr;

  struct Mvno {
    uint32_t slice_id;
    const char* name;
    const char* policy;  // which plugin the MVNO ships
    double target_bps;
    int ues;
  };
  const Mvno mvnos[] = {
      {1, "iot-co", "rr", 4e6, 4},      // IoT operator: fairness
      {2, "stream-co", "mt", 14e6, 3},  // video MVNO: peak throughput
      {3, "fair-co", "pf", 10e6, 3},    // consumer MVNO: proportional fair
  };

  std::printf("== Onboarding three MVNOs with their own Wasm schedulers ==\n");
  for (const Mvno& m : mvnos) {
    auto bytes = sched::plugins::scheduler(m.policy);
    if (!bytes.ok() || !mgr.install(m.name, *bytes).ok()) {
      std::printf("failed to onboard %s\n", m.name);
      return 1;
    }
    ran::SliceConfig slice;
    slice.slice_id = m.slice_id;
    slice.name = m.name;
    slice.target_rate_bps = m.target_bps;
    mac.add_slice(slice, std::make_unique<sched::WasmIntraScheduler>(mgr, m.name));
    for (int u = 0; u < m.ues; ++u) {
      ran::Channel::FadingParams fading;
      fading.mean_snr_db = 14.0 + 2.5 * u;
      mac.add_ue(m.slice_id, ran::Channel::fading(fading, m.slice_id * 100 + u),
                 ran::TrafficSource::full_buffer());
    }
    std::printf("  %-10s policy=%s target=%.0f Mb/s ues=%d\n", m.name, m.policy,
                m.target_bps / 1e6, m.ues);
  }

  if (auto st = mac.run_slots(10000); !st.ok()) {
    std::printf("MAC error: %s\n", st.error().message.c_str());
    return 1;
  }
  print_rates(mac, "after 10 s");

  // Snapshot fair-co's delivery before topology changes.
  uint64_t fairco_before = 0;
  for (uint32_t rnti : mac.ue_rntis()) {
    if (mac.ue(rnti)->slice_id() == 3) fairco_before += mac.ue(rnti)->delivered_bits();
  }

  std::printf("\n== Off-boarding iot-co (slice removed, plugin unloaded) ==\n");
  for (uint32_t rnti : mac.ue_rntis()) {
    if (mac.ue(rnti)->slice_id() == 1) {
      if (auto st = mac.remove_ue(rnti); !st.ok()) return 1;
    }
  }
  if (auto st = mgr.remove("iot-co"); !st.ok()) {
    std::printf("off-board error: %s\n", st.error().message.c_str());
    return 1;
  }
  if (auto st = mac.run_slots(5000); !st.ok()) return 1;
  print_rates(mac, "5 s after off-boarding");

  uint64_t fairco_after = 0;
  for (uint32_t rnti : mac.ue_rntis()) {
    if (mac.ue(rnti)->slice_id() == 3) fairco_after += mac.ue(rnti)->delivered_bits();
  }
  std::printf("\nfair-co kept flowing throughout (%llu -> %llu bits delivered)\n",
              static_cast<unsigned long long>(fairco_before),
              static_cast<unsigned long long>(fairco_after));

  for (const Mvno& m : mvnos) {
    if (const plugin::SlotHealth* h = mgr.health(m.name)) {
      std::printf("%-10s plugin: %llu scheduling calls, %llu faults\n", m.name,
                  static_cast<unsigned long long>(mgr.cost(m.name)->calls()),
                  static_cast<unsigned long long>(h->faults));
    }
  }
  return 0;
}
