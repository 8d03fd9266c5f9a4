// The gNB MAC downlink slot loop with two-level slice scheduling — the
// srsRAN-equivalent substrate the paper retrofits (§5A). Each slot:
//
//   1. traffic arrivals + channel evolution per UE,
//   2. inter-slice scheduler divides the carrier's PRBs among slices,
//   3. each slice's intra-slice scheduler (native or Wasm plugin) orders
//      its UEs and sizes their grants,
//   4. the resource allocator applies the grants, clamping to the quota and
//      sanitizing invalid plugin output (§6A), and delivers transport
//      blocks into the UEs' throughput accounting.
//
// Scheduler faults never abort the slot: the MAC falls back to a host-side
// round-robin for that slice and counts the event.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "ran/phy_tables.h"
#include "ran/scheduler_iface.h"
#include "ran/ue.h"

namespace waran::ran {

struct MacConfig {
  uint32_t n_prbs = 52;      ///< 10 MHz @ 15 kHz SCS, the paper's testbed
  uint32_t slot_us = 1000;   ///< 1 ms slots (numerology 0)
  double pf_time_constant_slots = 100.0;

  /// Transport-block errors drawn from the channel's BLER. Off by default
  /// (the paper's experiments assume the link-adaptation operating point).
  bool channel_errors = false;
  /// With channel_errors: stop-and-wait HARQ with chase combining; without
  /// it a failed TB is simply lost.
  bool enable_harq = true;
  uint32_t max_harq_attempts = 4;
  uint64_t error_seed = 0x5eed;

  /// Cell identity in a multi-cell gNB deployment (rt::GnbDeployment).
  /// Stamped as a "cell" label on the per-slice metric series so cells
  /// sharing one MetricsRegistry stay distinguishable; the unlabeled slot
  /// aggregates (waran_mac_slots_total etc.) are shared across cells by
  /// design.
  uint32_t cell = 0;
  /// Anomaly-journal domain for this MAC's records. Single-cell embedders
  /// keep the default; the deployment uses "mac<cell>" so per-domain
  /// journal sequences stay single-writer (and thus deterministic) when
  /// cells run on separate worker threads.
  std::string domain = "mac";
};

/// Per-slice counters the evaluation reads.
struct SliceStats {
  uint64_t slots_scheduled = 0;   ///< slots with a nonzero quota and demand
  uint64_t scheduler_faults = 0;  ///< plugin errors answered with fallback
  uint64_t sanitized_allocs = 0;  ///< invalid grant entries dropped/clamped
  uint64_t harq_retx = 0;         ///< transport blocks that needed retransmission
  uint64_t tb_drops = 0;          ///< TBs lost (HARQ exhausted / HARQ disabled)
  uint32_t last_quota = 0;
  std::string last_error;
};

class GnbMac {
 public:
  explicit GnbMac(MacConfig config);

  // --- Topology ------------------------------------------------------------

  /// Registers a slice with its intra-slice scheduler. slice_id must be new.
  void add_slice(const SliceConfig& config,
                 std::unique_ptr<IntraSliceScheduler> scheduler);

  /// Hot-swaps the intra-slice scheduler (the MAC-level face of the WA-RAN
  /// plugin swap; with a Wasm scheduler the plugin manager swap is used
  /// instead and this is not needed).
  Status set_intra_scheduler(uint32_t slice_id,
                             std::unique_ptr<IntraSliceScheduler> scheduler);

  void set_inter_scheduler(std::unique_ptr<InterSliceScheduler> scheduler);

  /// Switches link adaptation between the 64QAM and 256QAM CQI/MCS tables
  /// on every UE (the RIC's set_cqi_table control action made real).
  void set_mcs_table(McsTable table);
  McsTable mcs_table() const { return mcs_table_; }

  /// Adds a UE to a slice; returns its RNTI.
  uint32_t add_ue(uint32_t slice_id, Channel channel, TrafficSource traffic);

  /// Removes a UE (detach).
  Status remove_ue(uint32_t rnti);

  // --- Execution -----------------------------------------------------------

  /// Runs one slot. Never fails from plugin faults (those are contained);
  /// fails only on host misconfiguration.
  Status run_slot();
  Status run_slots(uint32_t n);

  // --- Introspection -------------------------------------------------------

  uint64_t slot() const { return slot_; }
  double now_s() const { return static_cast<double>(slot_) * config_.slot_us * 1e-6; }
  const MacConfig& config() const { return config_; }

  const UeContext* ue(uint32_t rnti) const;
  UeContext* ue(uint32_t rnti);
  std::vector<uint32_t> ue_rntis() const;

  /// Slice throughput over the trailing second (sum of member UE rates).
  double slice_rate_bps(uint32_t slice_id) const;
  const SliceStats* slice_stats(uint32_t slice_id) const;
  const SliceConfig* slice_config(uint32_t slice_id) const;
  std::vector<uint32_t> slice_ids() const;

  IntraSliceScheduler* intra_scheduler(uint32_t slice_id);

  /// Fault injection (waran::chaos): extra nanoseconds charged to the slot
  /// wall-clock before the overrun check, standing in for a host-side stall
  /// (page fault, preemption). The callback runs once per slot; return 0
  /// for no padding. Clears with nullptr.
  void set_slot_time_padding(std::function<uint64_t()> fn) {
    slot_padding_ = std::move(fn);
  }

 private:
  /// One attached UE. Owned by ues_ (rnti lookup; map nodes never move),
  /// referenced from the cell-wide and per-slice arrays the slot walks.
  struct UeEntry {
    std::unique_ptr<UeContext> ctx;
    uint32_t rnti = 0;
    uint32_t tbs_per_prb = 0;  // transport_block_bits(mcs, 1) for this slot
    // This slot's deliveries, consumed (and zeroed) at slot completion.
    uint32_t fresh_bits = 0;   // first transmissions (drain the RLC buffer)
    uint32_t harq_bits = 0;    // HARQ recoveries (buffer already drained)
  };

  struct SliceState {
    SliceConfig config;
    std::unique_ptr<IntraSliceScheduler> scheduler;
    SliceStats stats;
    std::vector<UeEntry*> ues;  // members, in rnti order
    codec::SchedRequest req;    // rebuilt in place every slot
    // Registry handles, bound at add_slice (label: slice id).
    obs::Counter* m_prb_granted = nullptr;
    obs::Counter* m_sched_faults = nullptr;
    obs::Counter* m_sanitized = nullptr;
    obs::Counter* m_slots_scheduled = nullptr;
  };

  void build_request(SliceState& slice, uint32_t quota);
  /// Host-side round-robin used when a slice's scheduler faults (§6A).
  static codec::SchedResponse fallback_round_robin(const codec::SchedRequest& req);
  void apply_response(SliceState& slice, const codec::SchedResponse& resp);

  MacConfig config_;
  uint64_t slot_ = 0;
  // Registry handles for slot-level accounting (bound in the constructor;
  // cells share the unlabeled aggregates and additionally feed per-cell
  // `waran_cell_*{cell=}` families, which the fleet telemetry plane
  // (obs/fleet.h) reads for its cell -> gNB -> deployment rollup).
  obs::Counter* m_slots_ = nullptr;
  obs::Counter* m_slot_overruns_ = nullptr;
  obs::Histogram* m_slot_wall_ns_ = nullptr;
  obs::Counter* m_cell_slots_ = nullptr;
  obs::Counter* m_cell_slot_overruns_ = nullptr;
  obs::Histogram* m_cell_slot_wall_ns_ = nullptr;
  uint32_t next_rnti_ = 0x4601;  // srsRAN's first C-RNTI
  std::map<uint32_t, SliceState> slices_;
  std::map<uint32_t, UeEntry> ues_;
  std::vector<UeEntry*> cell_ues_;  // every UE, in rnti order
  // Per-slot inter-slice inputs and outputs, one entry per slice in id
  // order; sized at add_slice and reused every slot.
  std::vector<SliceState*> order_;
  std::vector<SliceDemand> demands_;
  std::vector<uint32_t> quotas_;
  std::unique_ptr<InterSliceScheduler> inter_;
  McsTable mcs_table_ = McsTable::kQam64;
  Xoshiro256 error_rng_{0x5eed};
  std::function<uint64_t()> slot_padding_;
};

}  // namespace waran::ran
