// waran::obs metrics registry — named counters, gauges and fixed-bucket
// log-scale histograms, with Prometheus text exposition and a JSON snapshot.
//
// Unlike an exact order-statistics accumulator (one heap append per sample —
// right for offline evaluation), these instruments are bounded and built
// for the hot path: a counter add is one relaxed atomic add, a
// histogram add is two atomic adds and an increment of one of 65
// fixed power-of-two buckets. Nothing on the add path allocates or locks.
//
// Naming convention (doc/observability.md): `waran_<layer>_<name>` with the
// unit suffixed (`_total` for counters, `_ns` / `_bytes` / `_prbs` for
// quantities), labels in Prometheus form: `waran_plugin_calls_total{domain="mac",slot="rr"}`.
//
// Embedders resolve instruments once at setup (registration takes a mutex)
// and hold the returned reference — addresses are stable for the life of
// the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace waran::obs {

class Counter {
 public:
  void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2 histogram: 65 fixed buckets with exact power-of-two boundaries.
/// Bucket k (k >= 1) counts values v with 2^(k-1) <= v < 2^k; bucket 0
/// counts v == 0. Index is std::bit_width(v), so `add` is O(1) with no
/// branches on the bucket search. Quantiles are log-scale estimates (the
/// bucket's upper bound), answered from a HistState snapshot.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void add(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }
  uint64_t bucket_count(size_t k) const {
    return buckets_[k].load(std::memory_order_relaxed);
  }
  /// Exclusive upper bound of bucket k: 2^k (UINT64_MAX for k = 64).
  static uint64_t bucket_upper_bound(size_t k);
  /// HistState::quantile of a snapshot of this histogram.
  uint64_t quantile(double q) const;
  void reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

/// Exact snapshot of a log2 Histogram: plain counters, mergeable bucket by
/// bucket, so a merged state answers exactly what a single combined
/// histogram would.
struct HistState {
  uint64_t buckets[Histogram::kBuckets] = {};
  uint64_t sum = 0;
  uint64_t count = 0;

  static HistState from(const Histogram& h);
  void merge(const HistState& o);
  /// Subtracts an earlier snapshot of the same histogram (window delta).
  void subtract(const HistState& base);
  /// Nearest-rank quantile estimate (1-based rank, ceil), reported as the
  /// upper bound minus one of the bucket containing that rank (an
  /// over-estimate by at most 2x). q in [0,1], clamped; 0 when empty.
  uint64_t quantile(double q) const;
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  bool operator==(const HistState&) const = default;
};

/// A label set, rendered in sorted Prometheus form.
using Labels = std::initializer_list<std::pair<std::string_view, std::string_view>>;

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented layer feeds.
  static MetricsRegistry& global();

  /// Finds or creates an instrument. The returned reference is stable for
  /// the registry's lifetime; re-registering the same name+labels returns
  /// the same instrument. Registering an existing name as a different kind
  /// returns a separate instrument of the requested kind (names should not
  /// be reused across kinds; the exporter keeps them distinct).
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {});

  /// Prometheus text exposition format (type comments + one line per
  /// sample; histograms expand to cumulative _bucket/_sum/_count).
  std::string to_prometheus() const;
  /// JSON snapshot: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;

  size_t size() const;
  /// Zeroes every instrument's value; registrations (and handed-out
  /// references) stay valid. Tests and scenario runners use this to start
  /// from a clean sheet.
  void reset_values();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string base;    // metric name without labels
    std::string labels;  // rendered label block, "" or `{k="v",...}`
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, Labels labels, Kind kind);

  mutable std::mutex mu_;
  // Keyed by base + labels + kind tag; std::map keeps exporter output
  // sorted and entry addresses stable.
  std::map<std::string, Entry> entries_;
};

}  // namespace waran::obs
