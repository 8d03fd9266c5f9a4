// Statistics helpers for the evaluation harness: an exact quantile
// accumulator (the paper reports 50th/99th percentile execution times via
// Boost Accumulators; we keep all samples and compute exact order statistics),
// a windowed rate meter (bit/s over a sliding window, as iperf3 reports) and
// fixed-size per-plugin-slot call-cost totals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace waran {

/// Collects double samples and answers exact quantile queries.
class QuantileAcc {
 public:
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// q in [0,1]. Nearest-rank on the sorted samples: quantile(0.0) is the
  /// minimum, quantile(1.0) the maximum, and out-of-range q clamps to those
  /// endpoints. Returns 0 when empty.
  double quantile(double q) const;
  double min() const;
  double max() const;
  double mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double stddev() const;

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Sliding-window throughput meter: record (time, bits) arrivals, query the
/// average rate over the trailing window. Times are in seconds and expected
/// monotone; a timestamp older than the newest recorded entry is clamped
/// forward so the window never un-sorts (clock skew between reporting paths
/// must not corrupt eviction).
///
/// Entries live in a power-of-two ring, allocated by the first add() with
/// room for `capacity` entries (at least 16) and left uninitialized: a
/// slot is always written before it is read. Given a `capacity` of at
/// least the most entries one window holds (the MAC passes one per slot of
/// window, plus two), later adds never allocate; a caller that overfills
/// the ring makes it double, keeping every entry. Allocating at the first
/// add rather than at construction keeps a cell's set-up from faulting in
/// every UE's ring pages at once.
class RateMeter {
 public:
  explicit RateMeter(double window_s = 1.0, size_t capacity = 0)
      : window_s_(window_s), first_capacity_(capacity) {}

  void add(double t, uint64_t bits);
  /// Average bit/s over [t - window, t]. Query times earlier than the newest
  /// recorded entry are clamped to it; an empty window reports 0.
  double rate_bps(double t) const;
  uint64_t total_bits() const { return total_bits_; }
  /// Entries held (inside the window as of the last add or query).
  size_t size() const { return count_; }
  /// Ring slots allocated.
  size_t capacity() const { return ring_ ? mask_ + 1 : 0; }

 private:
  struct Entry {
    double t;
    uint64_t bits;
  };
  const Entry& front() const { return ring_[head_]; }
  const Entry& back() const { return ring_[(head_ + count_ - 1) & mask_]; }
  void grow(size_t min_capacity);
  void evict(double t) const;

  double window_s_;
  size_t first_capacity_;  // ring size requested for the first add()
  std::unique_ptr<Entry[]> ring_;
  size_t mask_ = 0;  // capacity - 1 (capacity is a power of two)
  mutable size_t head_ = 0;
  mutable size_t count_ = 0;
  mutable uint64_t window_bits_ = 0;
  uint64_t total_bits_ = 0;
};

/// Per-slot call-cost totals — calls, fuel used, instructions retired —
/// fed from the engine's CallStats on every sandbox crossing. Fixed size:
/// the per-call wall-time distribution lives in the metrics registry's
/// bounded `waran_plugin_wall_ns` histogram, fed by the same crossing.
class CallCostAcc {
 public:
  void add(uint64_t fuel_used, uint64_t instrs) {
    ++calls_;
    total_fuel_ += fuel_used;
    total_instrs_ += instrs;
  }

  uint64_t calls() const { return calls_; }
  uint64_t total_fuel() const { return total_fuel_; }
  uint64_t total_instrs() const { return total_instrs_; }

 private:
  uint64_t calls_ = 0;
  uint64_t total_fuel_ = 0;
  uint64_t total_instrs_ = 0;
};

}  // namespace waran
