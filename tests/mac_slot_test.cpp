// MAC slot path: behaviour lock and the steady-state allocation contract.
//
// The behaviour lock pins every scheduling outcome of fixed deployments —
// per-UE delivered bits and per-slice SliceStats — so a change to the slot
// loop's data layout must reproduce the previous loop bit for bit. The
// pinned values were captured from the map-based slot loop that preceded
// the per-slice UE arrays.
//
// The zero-alloc tests replace the global operator new (heap_probe_guard.h)
// and require that, after warm-up, GnbMac::run_slot itself makes no heap
// allocation: scheduler plugins are stubbed with an empty response so any
// allocation counted is the MAC's own.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tests/heap_probe_guard.h"

#include "common/tracked_alloc.h"
#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ran/mac.h"
#include "ric/quota_inter.h"
#include "rt/clock.h"
#include "rt/deployment.h"
#include "sched/native.h"

namespace waran {
namespace {

// --- Outcome fingerprint ---------------------------------------------------

struct Outcome {
  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  std::vector<uint64_t> cell_bits;           // delivered bits summed per cell

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  }

  /// Folds one cell's per-UE delivered bits (rnti order) and per-slice
  /// stats (slice-id order) into the digest.
  void add_cell(const ran::GnbMac& mac) {
    uint64_t bits = 0;
    for (uint32_t rnti : mac.ue_rntis()) {
      const uint64_t d = mac.ue(rnti)->delivered_bits();
      mix(rnti);
      mix(d);
      bits += d;
    }
    for (uint32_t id : mac.slice_ids()) {
      const ran::SliceStats& s = *mac.slice_stats(id);
      mix(id);
      mix(s.slots_scheduled);
      mix(s.scheduler_faults);
      mix(s.sanitized_allocs);
      mix(s.harq_retx);
      mix(s.tb_drops);
      mix(s.last_quota);
    }
    cell_bits.push_back(bits);
  }
};

void reset_global_obs() {
  obs::MetricsRegistry::global().reset_values();
  obs::AnomalyJournal::global().clear();
  obs::set_current_slot(0);
}

/// Three cells of the paper's rr/mt/pf MVNO slices with `ues` full-buffer
/// fading UEs each, driven through the deployment (Wasm schedulers, RIC
/// quota control every 10 slots) for 3000 slots on virtual time.
Outcome run_deployment(uint32_t ues) {
  reset_global_obs();
  rt::DeploymentConfig cfg;
  cfg.cells = 3;
  cfg.seed = 7;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  for (auto& s : cfg.slices) s.ues = ues;
  rt::GnbDeployment dep(cfg);
  EXPECT_TRUE(dep.status().ok());
  EXPECT_TRUE(dep.run_slots(3000).ok());
  Outcome out;
  for (uint32_t c = 0; c < dep.cells(); ++c) out.add_cell(dep.mac(c));
  return out;
}

struct Pinned {
  uint64_t digest;
  std::array<uint64_t, 3> cell_bits;
};

void expect_pinned(const Outcome& got, const Pinned& want) {
  ASSERT_EQ(got.cell_bits.size(), want.cell_bits.size());
  for (size_t c = 0; c < want.cell_bits.size(); ++c) {
    EXPECT_EQ(got.cell_bits[c], want.cell_bits[c]) << "cell " << c;
  }
  EXPECT_EQ(got.digest, want.digest);
}

TEST(MacBehaviourLock, Deployment2UesPerSlice) {
  expect_pinned(run_deployment(2),
                {13737215635487135465ull, {87761220ull, 89239518ull, 88637084ull}});
}

TEST(MacBehaviourLock, Deployment8UesPerSlice) {
  expect_pinned(run_deployment(8),
                {3810469386836508389ull, {112612648ull, 112854260ull, 113324342ull}});
}

TEST(MacBehaviourLock, Deployment32UesPerSlice) {
  expect_pinned(run_deployment(32),
                {2688953834556526250ull, {113480302ull, 113865924ull, 113455751ull}});
}

/// Faults on every 7th slot; otherwise grants a foreign RNTI and
/// over-allocates its own UEs, so the sanitizer and the host fallback
/// both run.
class RogueScheduler final : public ran::IntraSliceScheduler {
 public:
  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override {
    if (req.slot % 7 == 0) return Error::internal("rogue fault");
    codec::SchedResponse resp;
    resp.allocs.push_back({1, 3});
    for (const auto& ue : req.ues) resp.allocs.push_back({ue.rnti, req.prb_quota});
    return resp;
  }
  const char* name() const override { return "rogue"; }
};

/// One GnbMac with BLER-driven TB errors (with or without HARQ),
/// target-rate inter-slice scheduling, mixed traffic, a mid-run
/// detach/attach and a mid-run switch to the 256QAM table.
Outcome run_error_mac(bool harq, ran::SliceStats* totals) {
  ran::MacConfig cfg;
  cfg.channel_errors = true;
  cfg.enable_harq = harq;
  cfg.error_seed = 99;
  ran::GnbMac mac(cfg);
  mac.set_inter_scheduler(std::make_unique<sched::TargetRateInterScheduler>());
  const char* policies[] = {"rr", "mt", "pf", "drr"};
  const double targets[] = {6e6, 12e6, 9e6, 5e6, 4e6};
  for (uint32_t s = 0; s < 5; ++s) {
    ran::SliceConfig sc;
    sc.slice_id = s + 1;
    sc.target_rate_bps = targets[s];
    mac.add_slice(sc, s < 4 ? sched::make_native_scheduler(policies[s])
                            : std::make_unique<RogueScheduler>());
  }
  std::vector<uint32_t> rntis;
  for (uint32_t i = 0; i < 20; ++i) {
    const uint32_t slice = i % 5 + 1;
    ran::TrafficSource traffic =
        i % 3 == 0   ? ran::TrafficSource::full_buffer()
        : i % 3 == 1 ? ran::TrafficSource::cbr(2e6 + 1e5 * i)
                     : ran::TrafficSource::on_off(6e6, 40, 60, 1000 + i);
    rntis.push_back(mac.add_ue(
        slice, ran::Channel::fading({.mean_snr_db = 8.0 + i, .sigma_db = 4.0}, 500 + i),
        std::move(traffic)));
  }
  EXPECT_TRUE(mac.run_slots(1000).ok());
  EXPECT_TRUE(mac.remove_ue(rntis[6]).ok());
  EXPECT_TRUE(mac.remove_ue(rntis[13]).ok());
  mac.add_ue(2, ran::Channel::fading({.mean_snr_db = 15.0, .sigma_db = 2.0}, 77),
             ran::TrafficSource::full_buffer());
  EXPECT_TRUE(mac.run_slots(1000).ok());
  mac.set_mcs_table(ran::McsTable::kQam256);
  EXPECT_TRUE(mac.run_slots(1000).ok());
  for (uint32_t id : mac.slice_ids()) {
    const ran::SliceStats& s = *mac.slice_stats(id);
    totals->scheduler_faults += s.scheduler_faults;
    totals->sanitized_allocs += s.sanitized_allocs;
    totals->harq_retx += s.harq_retx;
    totals->tb_drops += s.tb_drops;
  }
  Outcome out;
  out.add_cell(mac);
  return out;
}

TEST(MacBehaviourLock, HarqMacWithErrorsSanitizerAndFallback) {
  ran::SliceStats totals;
  const Outcome got = run_error_mac(/*harq=*/true, &totals);
  // The shape must actually reach every path the lock is meant to cover.
  EXPECT_GT(totals.scheduler_faults, 0u);
  EXPECT_GT(totals.sanitized_allocs, 0u);
  EXPECT_GT(totals.harq_retx, 0u);
  ASSERT_EQ(got.cell_bits.size(), 1u);
  EXPECT_EQ(got.cell_bits[0], 95476796ull);
  EXPECT_EQ(got.digest, 3486727593106533602ull);
}

TEST(MacBehaviourLock, ErrorMacWithoutHarqDropsTbs) {
  ran::SliceStats totals;
  const Outcome got = run_error_mac(/*harq=*/false, &totals);
  EXPECT_GT(totals.tb_drops, 0u);
  ASSERT_EQ(got.cell_bits.size(), 1u);
  EXPECT_EQ(got.cell_bits[0], 95426442ull);
  EXPECT_EQ(got.digest, 1178106959533667125ull);
}

// --- Steady-state allocation contract -------------------------------------

/// Answers every request with no grants, so the slot's heap traffic is the
/// MAC's own.
class EmptyScheduler final : public ran::IntraSliceScheduler {
 public:
  Result<codec::SchedResponse> schedule(const codec::SchedRequest&) override {
    return codec::SchedResponse{};
  }
  const char* name() const override { return "empty"; }
};

/// Heap allocations over 1500 slots of a 3-slice cell after a 10-slot
/// warm-up. The measured span wraps every UE's 1 s rate window, so a ring
/// that was not sized for the window would have to grow inside it. Runs on
/// virtual time: on a loaded machine a real-clock slot can overrun its
/// budget, and journaling that overrun allocates — not the slot work this
/// contract is about.
uint64_t steady_state_allocs(uint32_t ues_per_slice,
                             std::unique_ptr<ran::InterSliceScheduler> inter) {
  rt::VirtualClockGuard virtual_time;
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::move(inter));
  for (uint32_t s = 1; s <= 3; ++s) {
    ran::SliceConfig sc;
    sc.slice_id = s;
    sc.name = "slice" + std::to_string(s);
    sc.target_rate_bps = 4e6 * s;
    sc.weight = s;
    mac.add_slice(sc, std::make_unique<EmptyScheduler>());
    for (uint32_t u = 0; u < ues_per_slice; ++u) {
      mac.add_ue(s, ran::Channel::fading({}, 100 * s + u), ran::TrafficSource::full_buffer());
    }
  }
  EXPECT_TRUE(mac.run_slots(10).ok());
  const uint64_t before = heap_probe::allocations();
  for (int i = 0; i < 1500; ++i) {
    if (!mac.run_slot().ok()) return ~0ull;
  }
  return heap_probe::allocations() - before;
}

TEST(MacZeroAlloc, SteadyStateSlotMakesNoHeapAllocation) {
  for (uint32_t ues : {2u, 8u, 32u}) {
    EXPECT_EQ(steady_state_allocs(ues, std::make_unique<sched::WeightedShareInterScheduler>()),
              0u)
        << "weighted-share, " << ues << " UEs/slice";
    EXPECT_EQ(steady_state_allocs(ues, std::make_unique<sched::TargetRateInterScheduler>()),
              0u)
        << "target-rate, " << ues << " UEs/slice";
    EXPECT_EQ(steady_state_allocs(ues, std::make_unique<sched::PriorityInterScheduler>()), 0u)
        << "priority, " << ues << " UEs/slice";
    EXPECT_EQ(steady_state_allocs(ues, std::make_unique<ric::QuotaTableInterScheduler>()), 0u)
        << "ric quota table, " << ues << " UEs/slice";
  }
}

TEST(MacZeroAlloc, ProbeSeesTheSchedulersOwnAllocations) {
  // Guards against a probe that reads zero: a real scheduler's response
  // vector must show up in the same count.
  ran::GnbMac mac(ran::MacConfig{});
  mac.set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
  ran::SliceConfig sc;
  sc.slice_id = 1;
  mac.add_slice(sc, sched::make_native_scheduler("rr"));
  mac.add_ue(1, ran::Channel::pinned_mcs(20), ran::TrafficSource::full_buffer());
  ASSERT_TRUE(mac.run_slots(10).ok());
  const uint64_t before = heap_probe::allocations();
  ASSERT_TRUE(mac.run_slots(100).ok());
  EXPECT_GE(heap_probe::allocations() - before, 100u);
}

}  // namespace
}  // namespace waran
