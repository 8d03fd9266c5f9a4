#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace waran {

void QuantileAcc::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double QuantileAcc::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  if (q <= 0.0) return samples_.front();
  if (q >= 1.0) return samples_.back();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples_.size())));
  if (rank == 0) rank = 1;
  return samples_[rank - 1];
}

double QuantileAcc::min() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.front();
}

double QuantileAcc::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

double QuantileAcc::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double QuantileAcc::stddev() const {
  if (samples_.size() < 2) return 0.0;
  double m = mean();
  double acc = 0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

void RateMeter::grow(size_t min_capacity) {
  const size_t cap = std::bit_ceil(std::max<size_t>(min_capacity, 16));
  auto ring = std::make_unique_for_overwrite<Entry[]>(cap);
  for (size_t i = 0; i < count_; ++i) ring[i] = ring_[(head_ + i) & mask_];
  ring_ = std::move(ring);
  mask_ = cap - 1;
  head_ = 0;
}

void RateMeter::add(double t, uint64_t bits) {
  // Clamp regressions forward: the ring must stay sorted by time or evict()
  // would drop the wrong end of the window.
  if (count_ > 0 && t < back().t) t = back().t;
  if (count_ == capacity()) grow(ring_ ? 2 * count_ : first_capacity_);
  ring_[(head_ + count_) & mask_] = {t, bits};
  ++count_;
  window_bits_ += bits;
  total_bits_ += bits;
  evict(t);
}

void RateMeter::evict(double t) const {
  while (count_ > 0 && front().t < t - window_s_) {
    window_bits_ -= front().bits;
    head_ = (head_ + 1) & mask_;
    --count_;
  }
}

double RateMeter::rate_bps(double t) const {
  if (count_ == 0) return 0.0;
  // A stale query (earlier than the newest arrival) would count bits that
  // arrive "after" the window's right edge; anchor it to the newest entry.
  if (t < back().t) t = back().t;
  evict(t);
  if (window_s_ <= 0) return 0.0;
  return static_cast<double>(window_bits_) / window_s_;
}

}  // namespace waran
