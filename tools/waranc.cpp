// waranc — the WA-RAN plugin toolchain CLI (paper §6D: a Wasm toolchain
// tailored to 5G RAN development).
//
//   waranc build  plugin.w [-o plugin.wasm] [--no-opt]   compile W -> wasm
//   waranc check  plugin.wasm                            decode + validate
//                                                        (the MNO's pre-deployment
//                                                        static analysis, §3A)
//   waranc dump   plugin.wasm                            disassemble
//   waranc asm    plugin.wat [-o plugin.wasm]            assemble WAT text
//   waranc run    plugin.wasm EXPORT [--input-hex BYTES] [--fuel N]
//                                                        execute through the
//                                                        plugin ABI, print the
//                                                        output as hex
//   waranc analyze plugin.wasm [--fuel N] [--depth N]    static verification +
//                                                        per-function worst-case
//                                                        bounds + the admission
//                                                        verdict a PluginManager
//                                                        would reach
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "plugin/plugin.h"
#include "wasm/disasm.h"
#include "wasmbuilder/wat.h"
#include "wasm/wasm.h"
#include "wcc/compiler.h"

namespace {

using namespace waran;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  waranc build plugin.w [-o out.wasm] [--no-opt]\n"
               "  waranc check plugin.wasm\n"
               "  waranc dump plugin.wasm\n"
               "  waranc asm plugin.wat [-o out.wasm]\n"
               "  waranc run plugin.wasm EXPORT [--input-hex BYTES] [--fuel N]\n"
               "  waranc analyze plugin.wasm [--fuel N] [--depth N]\n");
  return 2;
}

std::optional<std::vector<uint8_t>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

bool write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<std::vector<uint8_t>> parse_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    int hi = nibble(hex[i]), lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

int cmd_build(int argc, char** argv) {
  std::string input, output;
  wcc::CompileOptions options;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--no-opt") {
      options.optimize = false;
    } else if (!arg.empty() && arg[0] != '-') {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty()) return usage();
  if (output.empty()) {
    output = input;
    size_t dot = output.rfind('.');
    if (dot != std::string::npos) output.resize(dot);
    output += ".wasm";
  }
  auto source = read_file(input);
  if (!source) {
    std::fprintf(stderr, "waranc: cannot read %s\n", input.c_str());
    return 1;
  }
  auto bytes = wcc::compile(
      std::string_view(reinterpret_cast<const char*>(source->data()), source->size()),
      options);
  if (!bytes.ok()) {
    std::fprintf(stderr, "%s\n", bytes.error().message.c_str());
    return 1;
  }
  if (!write_file(output, *bytes)) {
    std::fprintf(stderr, "waranc: cannot write %s\n", output.c_str());
    return 1;
  }
  std::printf("%s: %zu bytes\n", output.c_str(), bytes->size());
  return 0;
}

Result<wasm::Module> load_module(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes) return Error::not_found("cannot read " + path);
  WARAN_TRY(module, wasm::decode_module(*bytes));
  WARAN_CHECK_OK(wasm::validate_module(module));
  return std::move(module);
}

int cmd_check(const std::string& path) {
  auto module = load_module(path);
  if (!module.ok()) {
    std::printf("REJECTED: %s\n", module.error().message.c_str());
    return 1;
  }
  std::printf("OK: %u function(s), %zu export(s), memory %s\n",
              module->num_funcs(), module->exports.size(),
              module->has_memory() ? "present" : "absent");
  for (const wasm::Export& e : module->exports) {
    if (e.kind == wasm::ImportKind::kFunc) {
      std::printf("  export %s: %s\n", e.name.c_str(),
                  to_string(module->func_type(e.index)).c_str());
    }
  }
  for (const wasm::Import& imp : module->imports) {
    std::printf("  import %s.%s\n", imp.module.c_str(), imp.name.c_str());
  }
  return 0;
}

int cmd_dump(const std::string& path) {
  auto module = load_module(path);
  if (!module.ok()) {
    std::fprintf(stderr, "waranc: %s\n", module.error().message.c_str());
    return 1;
  }
  std::fputs(wasm::disassemble(*module).c_str(), stdout);
  return 0;
}

int cmd_asm(int argc, char** argv) {
  std::string input, output;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty()) return usage();
  if (output.empty()) {
    output = input;
    size_t dot = output.rfind('.');
    if (dot != std::string::npos) output.resize(dot);
    output += ".wasm";
  }
  auto text = read_file(input);
  if (!text) {
    std::fprintf(stderr, "waranc: cannot read %s\n", input.c_str());
    return 1;
  }
  auto bytes = wasmbuilder::assemble_wat(
      std::string_view(reinterpret_cast<const char*>(text->data()), text->size()));
  if (!bytes.ok()) {
    std::fprintf(stderr, "%s\n", bytes.error().message.c_str());
    return 1;
  }
  // The SI gate: everything assembled must validate before shipping.
  auto module = wasm::decode_module(*bytes);
  if (!module.ok()) {
    std::fprintf(stderr, "waranc: assembled module malformed: %s\n",
                 module.error().message.c_str());
    return 1;
  }
  if (auto st = wasm::validate_module(*module); !st.ok()) {
    std::fprintf(stderr, "waranc: assembled module invalid: %s\n",
                 st.error().message.c_str());
    return 1;
  }
  if (!write_file(output, *bytes)) {
    std::fprintf(stderr, "waranc: cannot write %s\n", output.c_str());
    return 1;
  }
  std::printf("%s: %zu bytes\n", output.c_str(), bytes->size());
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string path = argv[0];
  std::string entry = argv[1];
  std::vector<uint8_t> input;
  plugin::PluginLimits limits;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--input-hex" && i + 1 < argc) {
      auto parsed = parse_hex(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "waranc: bad hex input\n");
        return 1;
      }
      input = std::move(*parsed);
    } else if (arg == "--fuel" && i + 1 < argc) {
      limits.fuel_per_call = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  auto bytes = read_file(path);
  if (!bytes) {
    std::fprintf(stderr, "waranc: cannot read %s\n", path.c_str());
    return 1;
  }
  auto plugin = plugin::Plugin::load(*bytes, {}, limits);
  if (!plugin.ok()) {
    std::fprintf(stderr, "waranc: %s\n", plugin.error().message.c_str());
    return 1;
  }
  auto out = (*plugin)->call(entry, input);
  for (const std::string& line : (*plugin)->log_lines()) {
    std::fprintf(stderr, "[plugin] %s\n", line.c_str());
  }
  if (!out.ok()) {
    std::fprintf(stderr, "waranc: call failed: %s\n", out.error().message.c_str());
    return 1;
  }
  for (uint8_t b : *out) std::printf("%02x", b);
  std::printf("\n");
  return 0;
}

std::string bound_str(uint64_t v) {
  return v == analysis::kUnbounded ? "unbounded" : std::to_string(v);
}

// The MNO's admission-time view of a plugin (§3A pre-deployment checks):
// verify the translated streams, print each function's static worst-case
// bounds, then the admission verdict the PluginManager would reach against
// the given slot budget. Exit 0 = admitted.
int cmd_analyze(int argc, char** argv) {
  std::string path;
  analysis::AdmissionLimits budget;
  budget.fuel_per_call = plugin::PluginLimits{}.fuel_per_call;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--fuel" && i + 1 < argc) {
      budget.fuel_per_call = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--depth" && i + 1 < argc) {
      budget.max_call_depth =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (!arg.empty() && arg[0] != '-') {
      path = std::move(arg);
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  // Route our own translation through the verifier too: a translator bug
  // shows up as a firewall error here, not as bogus bounds.
  analysis::install_stream_firewall();
  auto module = load_module(path);
  if (!module.ok()) {
    std::printf("REJECTED: %s\n", module.error().message.c_str());
    return 1;
  }
  auto tm = wasm::translate(*module);
  if (!tm.ok()) {
    std::printf("REJECTED: %s\n", tm.error().message.c_str());
    return 1;
  }
  auto ana = analysis::analyze(*module, **tm);
  if (!ana.ok()) {
    std::printf("REJECTED: %s\n", ana.error().message.c_str());
    return 1;
  }
  std::printf("verified: %zu function stream(s) well-formed\n",
              (*tm)->funcs.size());
  for (size_t i = 0; i < ana->funcs.size(); ++i) {
    const analysis::FuncBounds& b = ana->funcs[i];
    const uint32_t func_index =
        static_cast<uint32_t>(i) + module->num_imported_funcs;
    std::string name;
    for (const wasm::Export& e : module->exports) {
      if (e.kind == wasm::ImportKind::kFunc && e.index == func_index) {
        name = " (" + e.name + ")";
        break;
      }
    }
    std::printf("func %u%s: stack %u, frames [%s, %s], fuel [%s, %s], %s\n",
                func_index, name.c_str(), b.max_operand_depth,
                bound_str(b.min_frames).c_str(), bound_str(b.max_frames).c_str(),
                bound_str(b.min_fuel).c_str(), bound_str(b.worst_fuel).c_str(),
                b.may_loop ? "may loop" : "loop-free");
  }
  analysis::AdmissionReport report = analysis::admit(*module, **tm, budget);
  std::fputs(report.summary().c_str(), stdout);
  return report.admitted ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string cmd = argv[1];
  if (cmd == "build") return cmd_build(argc - 2, argv + 2);
  if (cmd == "check") return cmd_check(argv[2]);
  if (cmd == "dump") return cmd_dump(argv[2]);
  if (cmd == "asm") return cmd_asm(argc - 2, argv + 2);
  if (cmd == "run") return cmd_run(argc - 2, argv + 2);
  if (cmd == "analyze") return cmd_analyze(argc - 2, argv + 2);
  return usage();
}
