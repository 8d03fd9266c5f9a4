// Per-UE MAC context: identity, slice membership, channel, traffic source,
// RLC buffer, and throughput accounting (instantaneous windowed rate for
// the evaluation plots, EWMA long-term rate for proportional-fair).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/stats.h"
#include "ran/channel.h"
#include "ran/traffic.h"

namespace waran::ran {

class UeContext {
 public:
  /// `rate_window_entries` sizes the 1 s rate window's ring (one entry per
  /// slot); 0 lets it grow on demand.
  UeContext(uint32_t rnti, uint32_t slice_id, Channel channel, TrafficSource traffic,
            double pf_time_constant_slots = 100.0, size_t rate_window_entries = 0)
      : rnti_(rnti),
        slice_id_(slice_id),
        channel_(std::move(channel)),
        traffic_(std::move(traffic)),
        rate_meter_(1.0, rate_window_entries),
        pf_tc_(pf_time_constant_slots) {}

  uint32_t rnti() const { return rnti_; }
  uint32_t slice_id() const { return slice_id_; }
  Channel& channel() { return channel_; }
  const Channel& channel() const { return channel_; }

  uint32_t buffer_bytes() const { return buffer_bytes_; }
  double avg_tput_bps() const { return avg_tput_bps_; }
  uint64_t delivered_bits() const { return delivered_bits_; }

  /// Windowed (1 s) throughput, the quantity Fig. 5a/5b plot.
  double rate_bps(double now_s) const { return rate_meter_.rate_bps(now_s); }

  /// Slot phase 1: traffic arrivals + channel evolution.
  void begin_slot(uint32_t slot_us) {
    uint32_t arriving = traffic_.arrivals_bytes(slot_us);
    // Cap the buffer like a real RLC queue (tail drop).
    uint64_t b = static_cast<uint64_t>(buffer_bytes_) + arriving;
    buffer_bytes_ = b > kMaxBufferBytes ? kMaxBufferBytes : static_cast<uint32_t>(b);
    channel_.step();
  }

  /// Slot phase 3: `bits` were delivered to this UE this slot (0 if it was
  /// not scheduled). Updates buffer, EWMA and the rate meter.
  void deliver(uint32_t bits, double now_s, double slots_per_s) {
    complete_slot(bits, 0, now_s, slots_per_s);
  }

  /// Slot completion with split accounting: `fresh_bits` drain the RLC
  /// buffer (first transmissions), `harq_bits` do not (their bytes moved to
  /// the HARQ buffer at first transmission). One EWMA update per slot.
  void complete_slot(uint32_t fresh_bits, uint32_t harq_bits, double now_s,
                     double slots_per_s) {
    uint32_t bytes = fresh_bits / 8;
    buffer_bytes_ = bytes >= buffer_bytes_ ? 0 : buffer_bytes_ - bytes;
    uint32_t total = fresh_bits + harq_bits;
    delivered_bits_ += total;
    rate_meter_.add(now_s, total);
    double inst_bps = total * slots_per_s;
    avg_tput_bps_ += (inst_bps - avg_tput_bps_) / pf_tc_;
  }

  // --- HARQ (one process per UE, stop-and-wait) ---------------------------

  bool harq_pending() const { return harq_bits_ > 0; }
  uint32_t harq_bits() const { return harq_bits_; }
  uint32_t harq_attempts() const { return harq_attempts_; }

  /// Moves `bits` out of the RLC buffer into the HARQ process (first
  /// transmission failed).
  void harq_start(uint32_t bits) {
    uint32_t bytes = bits / 8;
    buffer_bytes_ = bytes >= buffer_bytes_ ? 0 : buffer_bytes_ - bytes;
    harq_bits_ = bits;
    harq_attempts_ = 1;
  }
  void harq_retry() { ++harq_attempts_; }
  uint32_t harq_finish() {
    uint32_t bits = harq_bits_;
    harq_bits_ = 0;
    harq_attempts_ = 0;
    return bits;
  }

  void set_pf_time_constant(double slots) { pf_tc_ = slots; }

 private:
  static constexpr uint32_t kMaxBufferBytes = 8 << 20;

  uint32_t rnti_;
  uint32_t slice_id_;
  Channel channel_;
  TrafficSource traffic_;
  uint32_t buffer_bytes_ = 0;
  double avg_tput_bps_ = 0.0;
  uint64_t delivered_bits_ = 0;
  RateMeter rate_meter_;
  double pf_tc_;
  uint32_t harq_bits_ = 0;
  uint32_t harq_attempts_ = 0;
};

}  // namespace waran::ran
