#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

namespace waran::obs {

void Histogram::add(uint64_t v) {
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Histogram::bucket_upper_bound(size_t k) {
  if (k >= 64) return std::numeric_limits<uint64_t>::max();
  return uint64_t{1} << k;
}

uint64_t Histogram::quantile(double q) const { return HistState::from(*this).quantile(q); }

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

HistState HistState::from(const Histogram& h) {
  // add() bumps the bucket before the count, so reading the count first
  // keeps a snapshot taken during concurrent adds from counting more
  // samples than its buckets hold.
  HistState s;
  s.count = h.count();
  s.sum = h.sum();
  for (size_t k = 0; k < Histogram::kBuckets; ++k) s.buckets[k] = h.bucket_count(k);
  return s;
}

void HistState::merge(const HistState& o) {
  for (size_t k = 0; k < Histogram::kBuckets; ++k) buckets[k] += o.buckets[k];
  sum += o.sum;
  count += o.count;
}

void HistState::subtract(const HistState& base) {
  for (size_t k = 0; k < Histogram::kBuckets; ++k) buckets[k] -= base.buckets[k];
  sum -= base.sum;
  count -= base.count;
}

uint64_t HistState::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t cum = 0;
  for (size_t k = 0; k < Histogram::kBuckets; ++k) {
    cum += buckets[k];
    if (cum >= rank) return k == 0 ? 0 : Histogram::bucket_upper_bound(k) - 1;
  }
  return Histogram::bucket_upper_bound(Histogram::kBuckets - 1);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

std::string render_labels(Labels labels) {
  if (labels.size() == 0) return "";
  std::vector<std::pair<std::string_view, std::string_view>> sorted(labels);
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    for (char c : v) {  // Prometheus label-value escaping
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') { out += "\\n"; continue; }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  out += '"';
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        Labels labels, Kind kind) {
  std::string label_str = render_labels(labels);
  std::string key = std::string(name) + label_str + "\x01" +
                    std::to_string(static_cast<int>(kind));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    e.base = std::string(name);
    e.labels = std::move(label_str);
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram: e.histogram = std::make_unique<Histogram>(); break;
    }
    it = entries_.emplace(std::move(key), std::move(e)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, labels, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, labels, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, Labels labels) {
  return *find_or_create(name, labels, Kind::kHistogram).histogram;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter: e.counter->reset(); break;
      case Kind::kGauge: e.gauge->reset(); break;
      case Kind::kHistogram: e.histogram->reset(); break;
    }
  }
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(entries_.size() * 64 + 64);
  char buf[160];
  std::string last_typed;  // emit one # TYPE line per base name
  for (const auto& [key, e] : entries_) {
    const char* type = e.kind == Kind::kCounter ? "counter"
                       : e.kind == Kind::kGauge ? "gauge"
                                                : "histogram";
    if (e.base != last_typed) {
      out += "# TYPE " + e.base + " " + type + "\n";
      last_typed = e.base;
    }
    switch (e.kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", e.counter->value());
        out += e.base + e.labels + buf;
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof(buf), " %lld\n",
                      static_cast<long long>(e.gauge->value()));
        out += e.base + e.labels + buf;
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        // Cumulative buckets; skip trailing empties, always emit +Inf.
        size_t top = Histogram::kBuckets;
        while (top > 1 && h.bucket_count(top - 1) == 0) --top;
        uint64_t cum = 0;
        std::string inner = e.labels.empty()
                                ? ""
                                : e.labels.substr(1, e.labels.size() - 2) + ",";
        for (size_t k = 0; k < top; ++k) {
          cum += h.bucket_count(k);
          std::snprintf(buf, sizeof(buf), "le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                        Histogram::bucket_upper_bound(k), cum);
          out += e.base + "_bucket{" + inner + buf;
        }
        std::snprintf(buf, sizeof(buf), "le=\"+Inf\"} %" PRIu64 "\n", h.count());
        out += e.base + "_bucket{" + inner + buf;
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", h.sum());
        out += e.base + "_sum" + e.labels + buf;
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", h.count());
        out += e.base + "_count" + e.labels + buf;
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters, gauges, histograms;
  char buf[160];
  for (const auto& [key, e] : entries_) {
    std::string name = e.base + e.labels;
    switch (e.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ',';
        append_json_string(counters, name);
        std::snprintf(buf, sizeof(buf), ":%" PRIu64, e.counter->value());
        counters += buf;
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ',';
        append_json_string(gauges, name);
        std::snprintf(buf, sizeof(buf), ":%lld",
                      static_cast<long long>(e.gauge->value()));
        gauges += buf;
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        if (!histograms.empty()) histograms += ',';
        append_json_string(histograms, name);
        std::snprintf(buf, sizeof(buf),
                      ":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                      ",\"p50\":%" PRIu64 ",\"p99\":%" PRIu64 ",\"buckets\":[",
                      h.count(), h.sum(), h.quantile(0.50), h.quantile(0.99));
        histograms += buf;
        size_t top = Histogram::kBuckets;
        while (top > 1 && h.bucket_count(top - 1) == 0) --top;
        for (size_t k = 0; k < top; ++k) {
          if (k > 0) histograms += ',';
          std::snprintf(buf, sizeof(buf), "%" PRIu64, h.bucket_count(k));
          histograms += buf;
        }
        histograms += "]}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

}  // namespace waran::obs
