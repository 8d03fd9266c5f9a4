// WA-RAN slot benchmark: three-cell rt::GnbDeployment workloads, driven from
// outside through public entry points only.
//
//   slot_bench --workload <ue96|thin6|swap> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs 3 cells on 3 CellExecutor threads plus this
// coordinator thread, on virtual time, barrier-stepped with run_slots(1),
// with an E2 report every 10 slots. Wall time is read from
// rt::Clock::real_ns() only: inside a virtual-time deployment every other
// clock the stack exposes reads virtual time.
//
// --trace 0 (end-to-end): repeated fixed-length rounds until --seconds have
// passed. Each round builds a fresh deployment, warms it up and times every
// step of a fixed window. Exact work counts (allocations, heap checkpoints,
// Wasm instructions, fuel) must repeat bit for bit from round to round.
//
// --trace 1 (per layer): one threaded round for the executor-layer numbers,
// then two inline replays of the same seed and length that call the public
// entry points in run_slots' order. The first replay is untraced; the
// second records spans around every call and around every decorated
// scheduler crossing. Both must do exactly the same work.
//
// Either mode checks the program's outputs: statuses, scheduler faults,
// quarantine, E2 frame balance, and threaded-vs-inline digest equality. It
// prints one JSON object as its last stdout line and exits 1 if any check
// fails. A human-readable summary goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "codec/codec.h"
#include "common/tracked_alloc.h"
#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plugin/manager.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "rt/clock.h"
#include "rt/deployment.h"
#include "sched/plugins.h"
#include "wasm/wasm.h"

// ---------------------------------------------------------------------------
// Heap accounting. These replacements do what tests/heap_probe_guard.h does
// (feed heap_probe's exact operator-new count) and also keep an exact count
// of live requested bytes, stored in a 16-byte header in front of each
// block. Neither mallinfo2() nor malloc_usable_size() can serve for that:
// the first counts chunks parked in each thread's tcache as in use, and the
// second rounds a request up to whichever free chunk malloc happened to
// reuse, so two identical windows would differ by a few hundred bytes.

namespace {
constexpr std::size_t kHeader = 16;  // keeps the default new alignment
std::atomic<int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t n) {
  waran::heap_probe::note_alloc(n);
  auto* base = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &n, sizeof(n));
  g_live_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return base + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  waran::heap_probe::note_free();
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, base, sizeof(n));
  g_live_bytes.fetch_sub(static_cast<int64_t>(n), std::memory_order_relaxed);
  std::free(base);
}
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace waran;

constexpr uint32_t kCells = 3;
constexpr uint32_t kReportPeriod = 10;  // slots between E2 indications
constexpr uint32_t kSwapPeriod = 10;    // `swap`: slots between swaps, per cell
constexpr uint32_t kSetupPerRound = 4;  // extra timed constructions per round
constexpr uint32_t kCheckpoints = 16;   // heap checkpoints across a window
// Throughput and CPU are taken per block of steps, and their medians
// reported: a host that preempts one vCPU stalls the whole barrier for
// milliseconds, which a whole-window mean would charge to the program.
constexpr uint32_t kBlockSteps = 100;
constexpr uint32_t kProbeSwapEvents = 7;  // post-window swap events (ue96, thin6)
constexpr uint32_t kPostWaitReps = 2000;
constexpr uint32_t kLoadReps = 30;  // per policy, for the load-step timings
constexpr uint32_t kMinRounds = 2;
constexpr uint32_t kTracePairs = 5;  // untraced/traced replay pairs, --trace 1
const char* const kPolicyCycle[] = {"rr", "pf", "mt"};

// ---------------------------------------------------------------------------
// Measurement primitives

uint64_t wall_ns() { return rt::Clock::global().real_ns(); }

/// CPU seconds of the whole process (RUSAGE_SELF) or of the calling thread
/// (RUSAGE_THREAD).
double cpu_seconds(int who = RUSAGE_SELF) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

int64_t live_heap_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Least-squares slope of ys over evenly spaced xs (step apart).
double slope(const std::vector<int64_t>& ys, double step) {
  const size_t n = ys.size();
  if (n < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    const double x = step * static_cast<double>(i);
    const double y = static_cast<double>(ys[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double dn = static_cast<double>(n);
  return (dn * sxy - sx * sy) / (dn * sxx - sx * sx);
}

/// The deployment digests global singleton state (metrics registry,
/// anomaly journal), so every compared run starts from a clean sheet.
void reset_global_obs() {
  obs::MetricsRegistry::global().reset_values();
  obs::AnomalyJournal::global().clear();
  obs::set_current_slot(0);
}

// ---------------------------------------------------------------------------
// Correctness gate and operation accounting

class Gate {
 public:
  void check(bool ok, const char* fmt, ...) __attribute__((format(printf, 3, 4))) {
    if (ok) return;
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "CHECK FAILED: %s\n", buf);
    ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// Attempted operations are scheduler calls, swaps, cell-slots and
/// indications; failures are scheduler faults, failed swaps, non-ok slot
/// statuses and lost or rejected E2 frames.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::vector<rt::SliceSpec> slices;
  analysis::AdmissionMode admission = analysis::AdmissionMode::kOff;
  /// Swap one slice's scheduler per cell every kSwapPeriod slots inside the
  /// window (the `swap` workload); otherwise swaps are timed in a short
  /// probe after the window.
  bool swap_in_window = false;
  uint32_t warmup_steps = 0;
  uint32_t window_steps = 0;
};

bool make_workload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "ue96") {
    w->slices = rt::default_mvno_slices();  // rr / mt / pf
    for (auto& s : w->slices) s.ues = 32;
    w->warmup_steps = 200;
    w->window_steps = 2000;
    return true;
  }
  if (name == "thin6") {
    const double rates[] = {4e6, 14e6, 10e6};
    const char* policies[] = {"rr", "mt", "pf"};
    for (uint32_t i = 0; i < 6; ++i) {
      w->slices.push_back({i + 1, "mvno" + std::to_string(i + 1), policies[i % 3],
                           rates[i % 3], /*quota_prbs=*/8, /*ues=*/2});
    }
    w->warmup_steps = 200;
    w->window_steps = 4000;
    return true;
  }
  if (name == "swap") {
    w->slices = rt::default_mvno_slices();
    for (auto& s : w->slices) s.ues = 8;
    w->admission = analysis::AdmissionMode::kEnforce;
    w->swap_in_window = true;
    w->warmup_steps = 200;
    w->window_steps = 3000;
    return true;
  }
  return false;
}

/// Compiled scheduler modules, built once per process and reused by every
/// swap (the deployment compiles its own at construction).
struct Policies {
  std::array<std::vector<uint8_t>, 3> bytes;  // indexed like kPolicyCycle
};

int policy_index(const std::string& policy) {
  for (int i = 0; i < 3; ++i) {
    if (policy == kPolicyCycle[i]) return i;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Span tracing (traced replay only)

enum Layer : uint8_t {
  kRanSlot,     // GnbMac::run_slot
  kSched,       // decorated IntraSliceScheduler::schedule
  kEncode,      //   codec encode_request
  kPluginCall,  //   PluginManager::call
  kDecode,      //   codec decode_response
  kIndicate,    // GnbAgent::send_indication
  kRicPoll,     // NearRtRic::poll
  kControl,     // GnbAgent::poll
  kLayerCount,
};

struct Span {
  Layer layer;
  uint64_t ns;      // duration
  uint64_t allocs;  // operator-new calls inside (single-threaded replay)
};

class Tracer {
 public:
  static constexpr uint32_t kCoordinator = kCells;

  Tracer() = default;
  // The scheduler decorators hold a reference to it.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void reserve(size_t per_cell, size_t coordinator) {
    for (uint32_t c = 0; c < kCells; ++c) buffers_[c].reserve(per_cell);
    buffers_[kCoordinator].reserve(coordinator);
  }

  template <class F>
  auto span(uint32_t buffer, Layer layer, F&& f) {
    if (!recording) return f();
    const uint64_t a0 = heap_probe::allocations();
    const uint64_t t0 = wall_ns();
    auto r = f();
    const uint64_t t1 = wall_ns();
    buffers_[buffer].push_back({layer, t1 - t0, heap_probe::allocations() - a0});
    return r;
  }

  struct Totals {
    std::array<uint64_t, kLayerCount> ns{};
    std::array<uint64_t, kLayerCount> allocs{};
    std::array<uint64_t, kLayerCount> count{};
  };
  Totals totals() const {
    Totals t;
    for (const auto& buf : buffers_) {
      for (const Span& s : buf) {
        t.ns[s.layer] += s.ns;
        t.allocs[s.layer] += s.allocs;
        ++t.count[s.layer];
      }
    }
    return t;
  }
  bool overflowed() const {
    for (const auto& buf : buffers_) {
      if (buf.size() >= buf.capacity()) return true;
    }
    return false;
  }

  bool recording = false;
  uint64_t step_ns = 0;    // replay step totals while recording
  uint64_t req_bytes = 0;  // encoded request bytes while recording
  /// Each cell's PluginManager, filled in once the deployment exists (the
  /// scheduler decorator runs inside the deployment's constructor).
  std::array<plugin::PluginManager*, kCells> managers{};

 private:
  // One buffer per cell plus the coordinator's: never shared between
  // writers.
  std::array<std::vector<Span>, kCells + 1> buffers_;
};

/// Stands in for the cell's WasmIntraScheduler with the same three public
/// calls it makes (codec encode, PluginManager::call, codec decode), so each
/// gets its own span. The exact-work comparison against the untraced replay
/// proves the substitution changes nothing.
class TracedScheduler final : public ran::IntraSliceScheduler {
 public:
  TracedScheduler(std::unique_ptr<ran::IntraSliceScheduler> inner, Tracer& tracer,
                  uint32_t cell, std::string slot)
      : inner_(std::move(inner)),
        tracer_(tracer),
        cell_(cell),
        slot_(std::move(slot)),
        codec_(codec::make_codec(codec::CodecKind::kWire)) {}

  Result<codec::SchedResponse> schedule(const codec::SchedRequest& req) override {
    return tracer_.span(cell_, kSched, [&]() -> Result<codec::SchedResponse> {
      std::vector<uint8_t> input =
          tracer_.span(cell_, kEncode, [&] { return codec_->encode_request(req); });
      if (tracer_.recording) tracer_.req_bytes += input.size();
      auto output = tracer_.span(cell_, kPluginCall, [&] {
        return tracer_.managers[cell_]->call(slot_, entry_, input);
      });
      if (!output.ok()) return output.error();
      return tracer_.span(cell_, kDecode,
                          [&] { return codec_->decode_response(*output); });
    });
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ran::IntraSliceScheduler> inner_;
  Tracer& tracer_;
  uint32_t cell_;
  std::string slot_;
  std::string entry_ = "schedule";
  std::unique_ptr<codec::Codec> codec_;
};

// ---------------------------------------------------------------------------
// One deployment, stepped like the workload

/// One cell's swap, run on that cell's executor thread.
struct SwapTask {
  plugin::PluginManager* manager = nullptr;
  const std::string* slot = nullptr;
  const std::vector<uint8_t>* bytes = nullptr;
  std::vector<double>* samples_us = nullptr;  // capacity reserved up front
  uint64_t failures = 0;

  void run() {
    const uint64_t t0 = wall_ns();
    const Status st = manager->swap(*slot, *bytes);
    const uint64_t t1 = wall_ns();
    if (!st.ok()) {
      ++failures;
      std::fprintf(stderr, "swap of %s failed: %s\n", slot->c_str(),
                   st.error().message.c_str());
    }
    if (samples_us != nullptr && samples_us->size() < samples_us->capacity()) {
      samples_us->push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
};

/// Exact work counters, summed over cells.
struct Work {
  uint64_t cell_slots = 0;
  uint64_t sched_calls = 0;
  uint64_t instrs = 0;
  uint64_t fuel = 0;
  uint64_t indications = 0;
  uint64_t swaps = 0;
  uint64_t allocs = 0;

  bool operator==(const Work&) const = default;
  Work operator-(const Work& o) const {
    return {cell_slots - o.cell_slots, sched_calls - o.sched_calls, instrs - o.instrs,
            fuel - o.fuel,             indications - o.indications, swaps - o.swaps,
            allocs - o.allocs};
  }
};

std::string describe(const Work& w) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "slots=%" PRIu64 " calls=%" PRIu64 " instrs=%" PRIu64 " fuel=%" PRIu64
                " ind=%" PRIu64 " swaps=%" PRIu64 " allocs=%" PRIu64,
                w.cell_slots, w.sched_calls, w.instrs, w.fuel, w.indications, w.swaps,
                w.allocs);
  return buf;
}

/// Calls f inside a span when a tracer is attached.
template <class F>
auto span(Tracer* tracer, uint32_t buffer, Layer layer, F&& f) {
  if (tracer == nullptr) return f();
  return tracer->span(buffer, layer, std::forward<F>(f));
}

class Run {
 public:
  Run(const Workload& w, const Policies& policies, uint64_t seed, bool threaded,
      Tracer* tracer = nullptr)
      : w_(w), policies_(policies), tracer_(tracer) {
    rt::DeploymentConfig cfg;
    cfg.cells = kCells;
    cfg.seed = seed;
    cfg.threaded = threaded;
    cfg.virtual_time = true;
    cfg.report_period_slots = kReportPeriod;
    cfg.admission = w.admission;
    cfg.slices = w.slices;
    if (tracer != nullptr) {
      cfg.decorate_scheduler = [tracer, &w](std::unique_ptr<ran::IntraSliceScheduler> s,
                                            uint32_t cell, uint32_t slice_id) {
        std::string slot;
        for (const auto& spec : w.slices) {
          if (spec.slice_id == slice_id) slot = spec.name;
        }
        return std::unique_ptr<ran::IntraSliceScheduler>(
            new TracedScheduler(std::move(s), *tracer, cell, slot));
      };
    }
    dep_ = std::make_unique<rt::GnbDeployment>(std::move(cfg));
    if (!dep_->status().ok()) return;
    for (uint32_t c = 0; c < kCells; ++c) {
      if (tracer != nullptr) tracer->managers[c] = &dep_->sched_plugins(c);
      current_policy_[c].reserve(w.slices.size());
      for (const auto& s : w.slices) current_policy_[c].push_back(policy_index(s.policy));
    }
  }

  // Executor tasks and the scheduler decorator hold pointers into this.
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  rt::GnbDeployment& dep() { return *dep_; }
  bool ok() const { return dep_->status().ok(); }
  uint64_t steps() const { return steps_; }

  /// Reserves room for `n` swap samples per cell (none are kept otherwise).
  void record_swaps(size_t n) {
    for (auto& v : swap_us_) v.reserve(n);
    for (uint32_t c = 0; c < kCells; ++c) tasks_[c].samples_us = &swap_us_[c];
  }
  std::vector<double> swap_samples() const {
    std::vector<double> all;
    for (const auto& v : swap_us_) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  /// One barrier step through GnbDeployment::run_slots, then the workload's
  /// swaps when due.
  void step() {
    const Status st = dep_->run_slots(1);
    if (!st.ok()) ++bad_steps_;
    ++steps_;
    if (w_.swap_in_window && steps_ % kSwapPeriod == 0) swap_event();
  }

  /// The same step as run_slots performs it, spelled out through the
  /// public entry points (inline deployments only). With a recording
  /// tracer every call gets a span.
  void replay_step() {
    rt::GnbDeployment& d = *dep_;
    const uint64_t t0 = wall_ns();
    const bool report = (steps_ + 1) % kReportPeriod == 0;
    for (uint32_t c = 0; c < kCells; ++c) {
      const Status st = span(tracer_, c, kRanSlot, [&] { return d.mac(c).run_slot(); });
      if (!st.ok()) ++bad_steps_;
      if (report) {
        // Indication loss is contained, as in run_slots; the E2 frame
        // balance check counts it.
        (void)span(tracer_, c, kIndicate, [&] { return d.agent(c).send_indication(); });
      }
    }
    if (report) {
      obs::set_current_slot(steps_ + 1);
      (void)span(tracer_, Tracer::kCoordinator, kRicPoll, [&] { return d.ric().poll(); });
      for (uint32_t c = 0; c < kCells; ++c) {
        obs::set_current_slot(d.mac(c).slot());
        (void)span(tracer_, c, kControl, [&] { return d.agent(c).poll(); });
      }
    }
    rt::Clock::global().advance_ns(static_cast<uint64_t>(d.mac(0).config().slot_us) *
                                   1000);
    if (tracer_ != nullptr && tracer_->recording) tracer_->step_ns += wall_ns() - t0;
    ++steps_;
    if (w_.swap_in_window && steps_ % kSwapPeriod == 0) swap_event();
  }

  /// One swap per cell, posted to the cells' executors concurrently. Cell c
  /// swaps slice (event + c) to the next policy in rr -> pf -> mt.
  void swap_event() {
    const size_t n = w_.slices.size();
    for (uint32_t c = 0; c < kCells; ++c) {
      const size_t s = (swap_events_ + c) % n;
      int& policy = current_policy_[c][s];
      policy = (policy + 1) % 3;
      SwapTask& t = tasks_[c];
      t.manager = &dep_->sched_plugins(c);
      t.slot = &w_.slices[s].name;
      t.bytes = &policies_.bytes[static_cast<size_t>(policy)];
      SwapTask* tp = &t;
      dep_->executor(c).post([tp] { tp->run(); });
    }
    for (uint32_t c = 0; c < kCells; ++c) dep_->executor(c).wait_idle();
    ++swap_events_;
  }

  Work work() const {
    Work wk;
    for (uint32_t c = 0; c < kCells; ++c) {
      wk.cell_slots += dep_->mac(c).slot();
      const plugin::PluginManager& pm = dep_->sched_plugins(c);
      for (const auto& s : w_.slices) {
        if (const CallCostAcc* cost = pm.cost(s.name)) {
          wk.sched_calls += cost->calls();
          wk.instrs += cost->total_instrs();
          wk.fuel += cost->total_fuel();
        }
        if (const plugin::SlotHealth* h = pm.health(s.name)) wk.swaps += h->swaps;
      }
      wk.indications += dep_->agent(c).stats().indications_sent;
    }
    wk.allocs = heap_probe::allocations();
    return wk;
  }

  /// Output checks for everything this deployment ran, plus its share of
  /// the attempted/failed operation counts.
  void audit(Gate& gate, Ops& ops) {
    const Work wk = work();
    uint64_t faults = 0, quarantined = 0, rejected = 0, sent = 0;
    for (uint32_t c = 0; c < kCells; ++c) {
      const ran::GnbMac& mac = dep_->mac(c);
      for (const auto& s : w_.slices) {
        faults += mac.slice_stats(s.slice_id)->scheduler_faults;
        const plugin::SlotHealth* h = dep_->sched_plugins(c).health(s.name);
        if (h == nullptr || h->quarantined) ++quarantined;
      }
      const ric::AgentStats& as = dep_->agent(c).stats();
      gate.check(as.indications_sent == mac.slot() / kReportPeriod,
                 "cell %u sent %" PRIu64 " indications in %" PRIu64 " slots", c,
                 as.indications_sent, mac.slot());
      sent += as.indications_sent;
      rejected += as.frames_rejected;
    }
    const ric::RicStats& rs = dep_->ric().stats();
    rejected += rs.frames_rejected;
    const uint64_t lost = sent - std::min(sent, rs.indications_processed);
    gate.check(rs.indications_processed == sent,
               "RIC processed %" PRIu64 " of %" PRIu64 " indications",
               rs.indications_processed, sent);
    uint64_t swap_failures = 0;
    for (const SwapTask& t : tasks_) swap_failures += t.failures;
    gate.check(bad_steps_ == 0, "%" PRIu64 " slot statuses were not ok", bad_steps_);
    gate.check(swap_failures == 0, "%" PRIu64 " swaps failed", swap_failures);
    gate.check(faults == 0, "%" PRIu64 " scheduler faults", faults);
    gate.check(quarantined == 0, "%" PRIu64 " quarantined scheduler slots", quarantined);
    gate.check(rejected == 0, "%" PRIu64 " rejected E2 frames", rejected);
    ops.attempted += wk.sched_calls + swap_events_ * kCells + wk.cell_slots + sent;
    ops.failed += faults + swap_failures + bad_steps_ + lost + rejected;
  }

 private:
  const Workload& w_;
  const Policies& policies_;
  Tracer* tracer_;
  std::array<std::vector<int>, kCells> current_policy_;
  std::array<SwapTask, kCells> tasks_;
  std::array<std::vector<double>, kCells> swap_us_;  // written by cell c's worker
  uint64_t steps_ = 0;
  uint64_t swap_events_ = 0;
  uint64_t bad_steps_ = 0;
  // Last member: its destructor joins the executors before the state their
  // tasks point into goes away.
  std::unique_ptr<rt::GnbDeployment> dep_;
};

// ---------------------------------------------------------------------------
// End-to-end rounds

struct RoundOptions {
  bool digest = false;     // keep the digest after the window
  bool post_wait = false;  // time empty executor round trips after it
};

struct Round {
  std::vector<double> setup_s;    // GnbDeployment constructions
  std::vector<double> step_us;    // steps without an E2 report
  std::vector<double> report_us;  // steps carrying the E2 loop
  std::vector<double> swap_us;
  std::vector<double> post_wait_us;
  std::vector<double> block_rate;    // cell-slots per second, per block of steps
  std::vector<double> block_cpu_us;  // process CPU per cell-slot, per block
  std::vector<int64_t> heap;  // live heap at each checkpoint, from window start
  double window_cpu_s = 0;       // process CPU over the window's blocks
  double coordinator_cpu_s = 0;  // this thread's share of it
  Work work;  // window deltas
  std::string digest;
};

Round threaded_round(const Workload& w, const Policies& pol, uint64_t seed,
                     const RoundOptions& opt, Gate& gate, Ops& ops) {
  Round r;
  // Set-up time is sampled in every round, so its median spans the same
  // stretch of the run as the other metrics.
  for (uint32_t i = 0; i < kSetupPerRound; ++i) {
    reset_global_obs();
    const uint64_t t0 = wall_ns();
    Run probe(w, pol, seed, /*threaded=*/true);
    r.setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    gate.check(probe.ok(), "deployment failed to build");
    if (!probe.ok()) return r;
  }
  reset_global_obs();
  const uint64_t c0 = wall_ns();
  Run run(w, pol, seed, /*threaded=*/true);
  r.setup_s.push_back(static_cast<double>(wall_ns() - c0) / 1e9);
  gate.check(run.ok(), "deployment failed to build");
  if (!run.ok()) return r;
  for (uint32_t k = 0; k < w.warmup_steps; ++k) run.step();

  const uint32_t n = w.window_steps;
  const uint32_t every = n / kCheckpoints;
  r.step_us.reserve(n);
  r.report_us.reserve(n / kReportPeriod + 1);
  r.heap.reserve(kCheckpoints + 1);
  r.block_rate.reserve(n / kBlockSteps);
  r.block_cpu_us.reserve(n / kBlockSteps);
  run.record_swaps(w.swap_in_window ? n / kSwapPeriod + 1 : kProbeSwapEvents);

  const int64_t heap0 = live_heap_bytes();
  r.heap.push_back(0);
  const Work w0 = run.work();
  uint64_t block_t = wall_ns();
  const double cpu0 = cpu_seconds();
  double block_cpu = cpu0;
  const double coordinator_cpu0 = cpu_seconds(RUSAGE_THREAD);
  for (uint32_t k = 1; k <= n; ++k) {
    const bool report = (run.steps() + 1) % kReportPeriod == 0;
    const uint64_t s0 = wall_ns();
    run.step();
    const uint64_t s1 = wall_ns();
    (report ? r.report_us : r.step_us).push_back(static_cast<double>(s1 - s0) / 1e3);
    if (k % kBlockSteps == 0) {
      const double cpu = cpu_seconds();
      const double block_slots = static_cast<double>(kCells) * kBlockSteps;
      r.block_rate.push_back(block_slots * 1e9 / static_cast<double>(s1 - block_t));
      r.block_cpu_us.push_back((cpu - block_cpu) * 1e6 / block_slots);
      block_t = s1;
      block_cpu = cpu;
    }
    if (k % every == 0) r.heap.push_back(live_heap_bytes() - heap0);
  }
  r.work = run.work() - w0;
  r.window_cpu_s = block_cpu - cpu0;
  r.coordinator_cpu_s = cpu_seconds(RUSAGE_THREAD) - coordinator_cpu0;
  if (opt.digest) r.digest = run.dep().digest();

  if (!w.swap_in_window) {
    for (uint32_t e = 0; e < kProbeSwapEvents; ++e) run.swap_event();
  }
  r.swap_us = run.swap_samples();
  if (opt.post_wait) {
    r.post_wait_us.reserve(kPostWaitReps);
    for (uint32_t i = 0; i < kPostWaitReps; ++i) {
      const uint64_t p0 = wall_ns();
      for (uint32_t c = 0; c < kCells; ++c) run.dep().executor(c).post([] {});
      for (uint32_t c = 0; c < kCells; ++c) run.dep().executor(c).wait_idle();
      r.post_wait_us.push_back(static_cast<double>(wall_ns() - p0) / 1e3);
    }
  }
  run.audit(gate, ops);
  return r;
}

/// Digest of an inline run_slots replay of the same seed and length.
std::string inline_digest(const Workload& w, const Policies& pol, uint64_t seed,
                          uint64_t steps, Gate& gate, Ops& ops) {
  reset_global_obs();
  Run run(w, pol, seed, /*threaded=*/false);
  gate.check(run.ok(), "inline deployment failed to build");
  if (!run.ok()) return {};
  while (run.steps() < steps) run.step();
  std::string d = run.dep().digest();
  run.audit(gate, ops);
  return d;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Gate& gate, const Ops& ops, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%-26s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-26s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::fprintf(stderr, "failed_ops_ratio           %16.6g  (%" PRIu64 " / %" PRIu64 ")\n",
               ops.attempted > 0 ? static_cast<double>(ops.failed) /
                                       static_cast<double>(ops.attempted)
                                 : 0.0,
               ops.failed, ops.attempted);
  std::string out = gate.ok() ? "{\"correct\": true" : "{\"correct\": false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Sanity checks on cpu_us_per_slot: it must count CPU on every thread, not
/// wall time. The cell threads must use more CPU than the coordinator, and
/// utilization (cpu_us_per_slot × slots_per_s / 1e6) cannot exceed the
/// machine's four cores. Utilization is not required to exceed one core:
/// when the host steals the vCPUs, wall time stretches and CPU time does
/// not, and it drops below 1 with the program unchanged.
double checked_cpu_util(Gate& gate, const std::vector<double>& block_rate,
                        const std::vector<double>& block_cpu_us, double window_cpu_s,
                        double coordinator_cpu_s) {
  const double util = median(block_cpu_us) * median(block_rate) / 1e6;
  gate.check(util > 0.0 && util <= 4.0, "CPU utilization %.3f outside (0, 4]", util);
  const double cells_cpu_s = window_cpu_s - coordinator_cpu_s;
  gate.check(cells_cpu_s > coordinator_cpu_s,
             "cell threads used %.3f CPU s, the coordinator %.3f", cells_cpu_s,
             coordinator_cpu_s);
  std::fprintf(stderr, "CPU: utilization %.3f; cell threads %.3f s, coordinator %.3f s\n",
               util, cells_cpu_s, coordinator_cpu_s);
  return util;
}

int run_end_to_end(const Workload& w, const Policies& pol, uint64_t seed,
                   double seconds) {
  Gate gate;
  Ops ops;

  std::vector<Round> rounds;
  const uint64_t start = wall_ns();
  while (rounds.size() < kMinRounds ||
         static_cast<double>(wall_ns() - start) / 1e9 < seconds) {
    RoundOptions opt;
    opt.digest = rounds.empty();
    rounds.push_back(threaded_round(w, pol, seed, opt, gate, ops));
    if (!gate.ok()) break;
  }
  const Round& first = rounds.front();
  const std::string replay = inline_digest(
      w, pol, seed, w.warmup_steps + static_cast<uint64_t>(w.window_steps), gate, ops);
  gate.check(!first.digest.empty() && first.digest == replay,
             "threaded digest differs from the inline replay");

  std::vector<double> rate, cpu_us, steps, reports, swaps, setup_s;
  double window_cpu_s = 0, coordinator_cpu_s = 0;
  for (const Round& r : rounds) {
    gate.check(r.work == first.work, "round work differs: %s vs %s",
               describe(r.work).c_str(), describe(first.work).c_str());
    gate.check(r.heap == first.heap, "heap checkpoints differ between rounds");
    rate.insert(rate.end(), r.block_rate.begin(), r.block_rate.end());
    cpu_us.insert(cpu_us.end(), r.block_cpu_us.begin(), r.block_cpu_us.end());
    steps.insert(steps.end(), r.step_us.begin(), r.step_us.end());
    reports.insert(reports.end(), r.report_us.begin(), r.report_us.end());
    swaps.insert(swaps.end(), r.swap_us.begin(), r.swap_us.end());
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    window_cpu_s += r.window_cpu_s;
    coordinator_cpu_s += r.coordinator_cpu_s;
  }
  checked_cpu_util(gate, rate, cpu_us, window_cpu_s, coordinator_cpu_s);
  gate.check(first.work.cell_slots == static_cast<uint64_t>(kCells) * w.window_steps,
             "window ran %" PRIu64 " cell-slots", first.work.cell_slots);
  const double cell_slots = static_cast<double>(first.work.cell_slots);
  const double heap_slope =
      slope(first.heap, static_cast<double>(w.window_steps / kCheckpoints)) / kCells;

  std::fprintf(stderr,
               "workload %s seed %" PRIu64 ": %zu rounds of %u steps; samples: %zu "
               "steps, %zu report steps, %zu swaps; window work %s\n",
               w.name.c_str(), seed, rounds.size(), w.window_steps, steps.size(),
               reports.size(), swaps.size(), describe(first.work).c_str());
  print_result(gate, ops,
               {
                   {"slots_per_s", median(rate), "1/s"},
                   {"cpu_us_per_slot", median(cpu_us), "us"},
                   {"slot_p50_us", median(steps), "us"},
                   {"report_slot_p50_us", median(reports), "us"},
                   {"swap_p50_us", median(swaps), "us"},
                   {"allocs_per_slot", static_cast<double>(first.work.allocs) / cell_slots,
                    "count"},
                   {"heap_growth_b_per_slot", heap_slope, "B"},
                   {"setup_s", median(setup_s), "s"},
               });
  return gate.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run

struct Replay {
  Work work;  // window deltas
  double wall_s = 0;
  std::string digest;
  uint64_t ric_polls = 0;
  uint64_t xapp_fuel = 0;
  uint64_t agent_fuel = 0;
};

Replay inline_replay(const Workload& w, const Policies& pol, uint64_t seed,
                     Tracer* tracer, Gate& gate, Ops& ops) {
  Replay out;
  reset_global_obs();
  Run run(w, pol, seed, /*threaded=*/false, tracer);
  gate.check(run.ok(), "inline deployment failed to build");
  if (!run.ok()) return out;
  for (uint32_t k = 0; k < w.warmup_steps; ++k) run.replay_step();
  run.record_swaps(w.window_steps / kSwapPeriod + 1);

  uint64_t agent_fuel0 = 0;
  for (uint32_t c = 0; c < kCells; ++c) agent_fuel0 += run.dep().agent(c).stats().plugin_fuel_used;
  const uint64_t xapp_fuel0 = run.dep().ric().stats().xapp_fuel_used;
  const Work w0 = run.work();
  if (tracer != nullptr) tracer->recording = true;
  const uint64_t t0 = wall_ns();
  for (uint32_t k = 0; k < w.window_steps; ++k) {
    if ((run.steps() + 1) % kReportPeriod == 0) ++out.ric_polls;
    run.replay_step();
  }
  const uint64_t t1 = wall_ns();
  if (tracer != nullptr) tracer->recording = false;
  out.work = run.work() - w0;
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  for (uint32_t c = 0; c < kCells; ++c) out.agent_fuel += run.dep().agent(c).stats().plugin_fuel_used;
  out.agent_fuel -= agent_fuel0;
  out.xapp_fuel = run.dep().ric().stats().xapp_fuel_used - xapp_fuel0;
  out.digest = run.dep().digest();
  run.audit(gate, ops);
  return out;
}

struct LoadSteps {
  std::vector<double> decode, validate, translate, instantiate, admit, swap;
};

/// A linker that satisfies every function import of `m` with a stub; the
/// load-step timings never call into the host.
wasm::Linker stub_linker(const wasm::Module& m) {
  wasm::Linker linker;
  for (const auto& imp : m.imports) {
    if (imp.kind != wasm::ImportKind::kFunc) continue;
    wasm::HostFunc hf;
    hf.type = m.types[imp.type_index];
    hf.fn = [](wasm::HostContext&, std::span<const wasm::Value>)
        -> Result<std::optional<wasm::Value>> { return std::optional<wasm::Value>(); };
    linker.register_func(imp.module, imp.name, std::move(hf));
  }
  return linker;
}

/// Re-runs each public step of a plugin load on the scheduler modules, then
/// PluginManager::swap itself with admission enforced.
LoadSteps time_load_steps(const Policies& pol, Gate& gate) {
  LoadSteps ls;
  auto us = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a) / 1e3; };
  for (uint32_t rep = 0; rep < kLoadReps; ++rep) {
    for (const auto& bytes : pol.bytes) {
      const uint64_t t0 = wall_ns();
      auto decoded = wasm::decode_module(bytes);
      const uint64_t t1 = wall_ns();
      gate.check(decoded.ok(), "decode failed");
      if (!decoded.ok()) return ls;
      const Status valid = wasm::validate_module(*decoded);
      const uint64_t t2 = wall_ns();
      const Status translated = wasm::translate_module(*decoded);
      const uint64_t t3 = wall_ns();
      gate.check(valid.ok() && translated.ok(), "validate/translate failed");
      auto module = std::make_shared<const wasm::Module>(std::move(*decoded));
      const wasm::Linker linker = stub_linker(*module);
      const uint64_t t4 = wall_ns();
      auto inst = wasm::Instance::instantiate(module, linker);
      const uint64_t t5 = wall_ns();
      gate.check(inst.ok(), "instantiate failed");
      if (!inst.ok()) return ls;
      analysis::AdmissionLimits budget;
      budget.fuel_per_call = plugin::PluginLimits{}.fuel_per_call;
      budget.max_call_depth = (*inst)->max_call_depth();
      const uint64_t t6 = wall_ns();
      const analysis::AdmissionReport report =
          analysis::admit(*module, *(*inst)->translation(), budget);
      const uint64_t t7 = wall_ns();
      gate.check(report.admitted, "admission rejected a stock scheduler");
      ls.decode.push_back(us(t0, t1));
      ls.validate.push_back(us(t1, t2));
      ls.translate.push_back(us(t2, t3));
      ls.instantiate.push_back(us(t4, t5));
      ls.admit.push_back(us(t6, t7));
    }
  }
  plugin::PluginLimits limits;
  limits.admission = analysis::AdmissionMode::kEnforce;
  plugin::PluginManager pm(limits);
  gate.check(pm.install("slice", pol.bytes[0]).ok(), "install failed");
  for (uint32_t rep = 0; rep < kLoadReps * 3; ++rep) {
    const uint64_t t0 = wall_ns();
    const Status st = pm.swap("slice", pol.bytes[(rep + 1) % 3]);
    ls.swap.push_back(us(t0, wall_ns()));
    gate.check(st.ok(), "swap failed");
  }
  return ls;
}

int run_traced(const Workload& w, const Policies& pol, uint64_t seed) {
  Gate gate;
  Ops ops;
  RoundOptions opt;
  opt.digest = true;
  opt.post_wait = true;
  const Round threaded = threaded_round(w, pol, seed, opt, gate, ops);

  // Untraced and traced replays alternate; every one must do the same work.
  // The span buffers accumulate over all traced replays.
  Tracer tracer;
  tracer.reserve(kTracePairs * w.window_steps * (4 + 4 * w.slices.size()),
                 kTracePairs * (w.window_steps / kReportPeriod + 1));
  std::vector<double> plain_s, traced_s;
  Replay plain, traced;
  for (uint32_t i = 0; i < kTracePairs; ++i) {
    const Replay p = inline_replay(w, pol, seed, nullptr, gate, ops);
    const Replay t = inline_replay(w, pol, seed, &tracer, gate, ops);
    if (i == 0) {
      plain = p;
      traced = t;
    }
    gate.check(p.work == plain.work && p.digest == plain.digest,
               "untraced replays differ from each other");
    gate.check(t.digest == plain.digest, "traced replay digest differs from untraced");
    gate.check(t.work == plain.work, "traced work %s != untraced %s",
               describe(t.work).c_str(), describe(plain.work).c_str());
    plain_s.push_back(p.wall_s);
    traced_s.push_back(t.wall_s);
  }
  const LoadSteps load = time_load_steps(pol, gate);

  gate.check(plain.digest == threaded.digest,
             "entry-point replay digest differs from the threaded run_slots run");
  Work threaded_work = threaded.work;
  threaded_work.allocs = plain.work.allocs;  // executor hand-off allocates
  gate.check(threaded_work == plain.work, "threaded work %s != replay %s",
             describe(threaded.work).c_str(), describe(plain.work).c_str());
  gate.check(!tracer.overflowed(), "span buffer filled up");

  // Span totals cover kTracePairs replays; each did `wk`.
  const Tracer::Totals t = tracer.totals();
  const Work& wk = traced.work;
  auto ns = [&](Layer l) { return static_cast<double>(t.ns[l]) / kTracePairs; };
  auto al = [&](Layer l) { return static_cast<double>(t.allocs[l]) / kTracePairs; };
  const double slots = static_cast<double>(wk.cell_slots);
  const double calls = static_cast<double>(wk.sched_calls);
  const double inds = static_cast<double>(wk.indications);
  const double polls = static_cast<double>(traced.ric_polls);
  gate.check(t.count[kSched] == kTracePairs * wk.sched_calls,
             "%" PRIu64 " sched spans for %" PRIu64 " calls", t.count[kSched],
             kTracePairs * wk.sched_calls);

  const double top = ns(kRanSlot) + ns(kIndicate) + ns(kRicPoll) + ns(kControl);
  const double ledger = top / (static_cast<double>(tracer.step_ns) / kTracePairs);
  gate.check(ledger >= 0.95 && ledger <= 1.0,
             "layer self-times cover %.4f of the traced step total", ledger);
  const double cpu_util =
      checked_cpu_util(gate, threaded.block_rate, threaded.block_cpu_us,
                       threaded.window_cpu_s, threaded.coordinator_cpu_s);
  std::vector<double> all_steps = threaded.step_us;
  all_steps.insert(all_steps.end(), threaded.report_us.begin(), threaded.report_us.end());

  std::fprintf(stderr,
               "workload %s seed %" PRIu64 ": %u traced replays of %u steps; window work "
               "%s; median window untraced %.4fs, traced %.4fs\n",
               w.name.c_str(), seed, kTracePairs, w.window_steps, describe(wk).c_str(),
               median(plain_s), median(traced_s));
  const double plugin_us = ns(kPluginCall) / calls / 1e3;
  print_result(
      gate, ops,
      {
          {"ran.self_us_per_slot", (ns(kRanSlot) - ns(kSched)) / slots / 1e3, "us"},
          {"ran.allocs_per_slot", (al(kRanSlot) - al(kSched)) / slots, "count"},
          {"sched.call_us", ns(kSched) / calls / 1e3, "us"},
          {"sched.calls_per_slot", calls / slots, "count"},
          {"sched.allocs_per_call", al(kSched) / calls, "count"},
          {"codec.encode_us", ns(kEncode) / calls / 1e3, "us"},
          {"codec.decode_us", ns(kDecode) / calls / 1e3, "us"},
          {"codec.req_bytes_per_call", static_cast<double>(tracer.req_bytes) / kTracePairs / calls,
           "B"},
          {"codec.allocs_per_call", (al(kEncode) + al(kDecode)) / calls, "count"},
          {"plugin.call_us", plugin_us, "us"},
          {"plugin.allocs_per_call", al(kPluginCall) / calls, "count"},
          {"wasm.instrs_per_call", static_cast<double>(wk.instrs) / calls, "count"},
          {"wasm.fuel_per_call", static_cast<double>(wk.fuel) / calls, "count"},
          {"wasm.ns_per_instr", ns(kPluginCall) / static_cast<double>(wk.instrs), "ns"},
          {"e2.indicate_us", ns(kIndicate) / inds / 1e3, "us"},
          {"ric.poll_us", ns(kRicPoll) / polls / 1e3, "us"},
          {"e2.control_us", ns(kControl) / inds / 1e3, "us"},
          {"e2.allocs_per_report", (al(kIndicate) + al(kRicPoll) + al(kControl)) / inds,
           "count"},
          {"e2.fuel_per_indication", static_cast<double>(traced.agent_fuel) / inds, "count"},
          {"ric.xapp_fuel_per_poll", static_cast<double>(traced.xapp_fuel) / polls, "count"},
          {"rt.post_wait_us", median(threaded.post_wait_us), "us"},
          {"rt.cpu_util", cpu_util, "ratio"},
          {"rt.step_p99_us", quantile(all_steps, 0.99), "us"},
          {"plugin.swap_us", median(load.swap), "us"},
          {"wasm.decode_us", median(load.decode), "us"},
          {"wasm.validate_us", median(load.validate), "us"},
          {"wasm.translate_us", median(load.translate), "us"},
          {"analysis.admit_us", median(load.admit), "us"},
          {"wasm.instantiate_us", median(load.instantiate), "us"},
          {"trace.overhead_pct", 100.0 * (median(traced_s) / median(plain_s) - 1.0), "%"},
          {"trace.ledger_share", ledger, "ratio"},
      });
  return gate.ok() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: slot_bench --workload <ue96|thin6|swap> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  Workload w;
  if (!make_workload(workload, &w)) return usage();

  Policies pol;
  for (int i = 0; i < 3; ++i) {
    auto bytes = sched::plugins::scheduler(kPolicyCycle[i]);
    if (!bytes.ok()) {
      std::fprintf(stderr, "cannot compile %s: %s\n", kPolicyCycle[i],
                   bytes.error().message.c_str());
      return 1;
    }
    pol.bytes[static_cast<size_t>(i)] = std::move(*bytes);
  }
  return trace != 0 ? run_traced(w, pol, seed) : run_end_to_end(w, pol, seed, seconds);
}
