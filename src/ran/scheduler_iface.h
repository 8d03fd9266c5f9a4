// Scheduler interfaces the MAC calls into. Implementations live in
// src/sched: native baselines (RR/PF/MT) and the Wasm-plugin bridge —
// swapping between them is exactly the WA-RAN experiment.
#pragma once

#include <cstdint>
#include <span>

#include "codec/messages.h"
#include "common/result.h"
#include "ran/slice.h"

namespace waran::ran {

/// Intra-slice scheduler: distributes a slice's PRB quota across its UEs.
/// The returned allocations are in priority order; the MAC clamps them to
/// the quota. Called once per slice per slot — the 1 ms deadline applies.
class IntraSliceScheduler {
 public:
  virtual ~IntraSliceScheduler() = default;

  virtual Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) = 0;

  /// Human-readable identity for logs/plots (e.g. "pf", "wasm:pf").
  virtual const char* name() const = 0;
};

/// Inter-slice scheduler: divides the carrier's PRBs among slices.
struct SliceDemand {
  const SliceConfig* config = nullptr;
  uint32_t backlog_bytes = 0;    ///< summed UE buffers in the slice
  double current_rate_bps = 0;   ///< slice throughput over the last second
  uint32_t active_ues = 0;
  /// Mean bits one PRB carries per slot across the slice's active UEs
  /// (0 when idle) — lets target-rate scheduling convert bit/s to PRBs.
  double est_bits_per_prb = 0;
};

class InterSliceScheduler {
 public:
  virtual ~InterSliceScheduler() = default;

  /// Writes one PRB quota per entry of `demands` into `quotas` (same
  /// length, owned by the caller and reused every slot), summing to
  /// <= n_prbs. Every entry is overwritten.
  virtual void allocate(uint32_t n_prbs, std::span<const SliceDemand> demands,
                        std::span<uint32_t> quotas) = 0;

  virtual const char* name() const = 0;
};

}  // namespace waran::ran
