// Shared helpers for the figure-reproduction harnesses.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "plugin/manager.h"
#include "ran/mac.h"
#include "rt/clock.h"
#include "sched/plugins.h"
#include "sched/wasm_sched.h"
#include "wasm/wasm.h"
#include "wcc/compiler.h"

namespace waran::bench {

/// Compiles W source and instantiates it (decode -> validate -> link),
/// aborting the bench on any failure.
inline std::unique_ptr<wasm::Instance> instantiate_w(const char* src,
                                                     const wasm::Linker& linker = {}) {
  auto bytes = wcc::compile(src);
  if (!bytes.ok()) std::abort();
  auto module = wasm::decode_module(*bytes);
  if (!module.ok()) std::abort();
  if (!wasm::validate_module(*module).ok()) std::abort();
  auto inst = wasm::Instance::instantiate(
      std::make_shared<wasm::Module>(std::move(*module)), linker);
  if (!inst.ok()) std::abort();
  return std::move(*inst);
}

inline double now_us() { return static_cast<double>(rt::now_ns()) / 1000.0; }

/// Installs the named scheduler plugin (rr/pf/mt) into `mgr` under `slot`,
/// aborting the bench on failure.
inline void install_sched_plugin(plugin::PluginManager& mgr, const std::string& slot,
                                 const std::string& kind) {
  auto bytes = sched::plugins::scheduler(kind);
  if (!bytes.ok()) {
    std::fprintf(stderr, "FATAL: compiling %s plugin: %s\n", kind.c_str(),
                 bytes.error().message.c_str());
    std::abort();
  }
  auto st = mgr.has(slot) ? mgr.swap(slot, *bytes) : mgr.install(slot, *bytes);
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL: installing %s plugin: %s\n", kind.c_str(),
                 st.error().message.c_str());
    std::abort();
  }
}

inline void check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, st.error().message.c_str());
    std::abort();
  }
}

/// Path of the machine-readable benchmark report shared by the bench
/// binaries (CI uploads it as an artifact and gates perf regressions on it).
inline std::string bench_json_path() {
  const char* p = std::getenv("WARAN_BENCH_JSON");
  return (p != nullptr && *p != '\0') ? std::string(p)
                                      : std::string("BENCH_interp.json");
}

/// Merges `entries` into the flat `{"key": number}` JSON at
/// bench_json_path(). Read-merge-write (with a tolerant parser that skips
/// anything that is not a `"key": number` pair) so separate bench processes
/// — abl_engine for ns/op + instrs/s, fig5d for latency quantiles — can
/// accumulate into one report file.
///
/// Ownership contract: keys are namespaced `<producer>.<rest>` (first dot
/// segment = the bench binary), and a merge REPLACES every key under the
/// producers it writes rather than overlaying them. Plain overlay semantics
/// let a renamed or deleted benchmark leave its stale key in the accumulated
/// report forever, so the baseline gate kept "passing" on numbers no binary
/// produced any more; with prefix ownership a removed benchmark's key
/// disappears on the next run and the gate fails it as MISSING.
inline void bench_json_merge(const std::map<std::string, double>& entries) {
  const std::string path = bench_json_path();
  std::map<std::string, double> all;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string text = ss.str();
      size_t i = 0;
      while ((i = text.find('"', i)) != std::string::npos) {
        const size_t key_end = text.find('"', i + 1);
        if (key_end == std::string::npos) break;
        const std::string key = text.substr(i + 1, key_end - i - 1);
        i = key_end + 1;
        const size_t colon = text.find(':', key_end);
        if (colon == std::string::npos) break;
        const char* start = text.c_str() + colon + 1;
        char* end = nullptr;
        const double v = std::strtod(start, &end);
        if (end != start) {
          all[key] = v;
          i = static_cast<size_t>(end - text.c_str());
        }
      }
    }
  }
  std::set<std::string> producers;
  for (const auto& [k, _] : entries) {
    producers.insert(k.substr(0, k.find('.')));
  }
  for (auto it = all.begin(); it != all.end();) {
    if (producers.contains(it->first.substr(0, it->first.find('.')))) {
      it = all.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [k, v] : entries) all[k] = v;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  size_t n = 0;
  for (const auto& [k, v] : all) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out << "  \"" << k << "\": " << buf << (++n < all.size() ? "," : "") << "\n";
  }
  out << "}\n";
}

}  // namespace waran::bench
