// Native (host-compiled) scheduler implementations.
//
// Intra-slice: the paper's three MVNO policies — Round Robin, Proportional
// Fair, and Maximum Throughput (§4A). These serve both as the baselines the
// Wasm plugins are compared against (bench/abl_native_vs_wasm) and as the
// reference semantics the plugin versions must match bit-for-bit
// (tests/sched_test.cpp cross-checks them on identical inputs).
//
// Inter-slice: the three strategies the paper names in §4A — "fixed
// resource percentages, prioritizing latency-sensitive information, or
// targeting specific bit rates".
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ran/scheduler_iface.h"

namespace waran::sched {

// --- Intra-slice ------------------------------------------------------------

/// Equal PRB shares, rotating the remainder by slot index.
class RrScheduler final : public ran::IntraSliceScheduler {
 public:
  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override;
  const char* name() const override { return "rr"; }
};

/// Greedy buffer-drain in order of achievable rate (channel quality).
class MtScheduler final : public ran::IntraSliceScheduler {
 public:
  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override;
  const char* name() const override { return "mt"; }
};

/// Greedy buffer-drain in order of the PF metric achievable / avg_tput.
class PfScheduler final : public ran::IntraSliceScheduler {
 public:
  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override;
  const char* name() const override { return "pf"; }
};

/// Deficit Round Robin — the stateful fourth policy (not in the paper):
/// every active UE accrues quota/n_active PRBs of credit per slot; grants
/// are bounded by accumulated credit, so a UE that was needed-limited or
/// momentarily absent keeps its share as burst credit (capped at 4x the
/// quota). State (rnti -> deficit) persists across slots — in the Wasm
/// version it lives in the plugin's own linear memory, demonstrating that
/// WA-RAN plugins can be stateful controllers, not just pure functions.
class DrrScheduler final : public ran::IntraSliceScheduler {
 public:
  static constexpr uint32_t kMaxTable = 64;

  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override;
  const char* name() const override { return "drr"; }

  double deficit(uint32_t rnti) const;

 private:
  struct Entry {
    uint32_t rnti;
    double deficit;
  };
  std::vector<Entry> table_;
};

// --- Inter-slice ------------------------------------------------------------

/// Weight-proportional split among slices with demand; leftover PRBs from
/// idle slices are redistributed.
class WeightedShareInterScheduler final : public ran::InterSliceScheduler {
 public:
  void allocate(uint32_t n_prbs, std::span<const ran::SliceDemand> demands,
                std::span<uint32_t> quotas) override;
  const char* name() const override { return "weighted-share"; }
};

/// Provisions each slice just enough PRBs to sustain its target rate
/// (rate capping, the Fig. 5a setup); excess capacity stays unused.
///
/// Two mechanisms make the delivered rate track the target despite integer
/// PRB granularity and policy-dependent spectral efficiency (an MT slice
/// spends its quota on its best UE, so the static mean-MCS estimate
/// under-counts):
///   - fractional provisioning: the per-slot PRB need is a float; a credit
///     accumulator dithers between floor/ceil so the average is exact;
///   - measured-rate feedback: a slow integral term nudges the need until
///     the slice's trailing-second rate matches the target.
/// When targets oversubscribe the carrier, needs scale proportionally.
class TargetRateInterScheduler final : public ran::InterSliceScheduler {
 public:
  explicit TargetRateInterScheduler(double slots_per_second = 1000.0,
                                    double feedback_gain = 0.002)
      : slots_per_s_(slots_per_second), gain_(feedback_gain) {}
  void allocate(uint32_t n_prbs, std::span<const ran::SliceDemand> demands,
                std::span<uint32_t> quotas) override;
  const char* name() const override { return "target-rate"; }

 private:
  struct SliceState {
    double correction_prbs = 0;  // integral feedback term
    double credit = 0;           // fractional-PRB dither accumulator
  };
  double slots_per_s_;
  double gain_;  // PRBs of correction per slot of 5%+ error
  std::map<uint32_t, SliceState> state_;
  std::vector<double> needed_;  // per-call scratch, reused across slots
};

/// Strict priority by slice weight (higher weight first); each slice takes
/// what its backlog needs before lower priorities see anything.
class PriorityInterScheduler final : public ran::InterSliceScheduler {
 public:
  void allocate(uint32_t n_prbs, std::span<const ran::SliceDemand> demands,
                std::span<uint32_t> quotas) override;
  const char* name() const override { return "priority"; }

 private:
  std::vector<size_t> order_;  // per-call scratch, reused across slots
};

/// Factory for the intra-slice baselines by name ("rr", "pf", "mt", "drr").
std::unique_ptr<ran::IntraSliceScheduler> make_native_scheduler(const std::string& name);

}  // namespace waran::sched
