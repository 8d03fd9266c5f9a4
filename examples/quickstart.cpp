// Quickstart: the WA-RAN plugin pipeline in one page.
//
//   1. Write a plugin in W (the bundled plugin language).
//   2. Compile it to WebAssembly with wcc.
//   3. Load it into the sandbox with resource limits.
//   4. Call it through the input/output ABI.
//   5. Watch a buggy update get contained, then hot-swap a fix.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>
#include <cstring>

#include "plugin/manager.h"
#include "wcc/compiler.h"

using namespace waran;

int main() {
  // 1-2. A toy "scheduler": reads N bytes, returns their sum. Compiled from
  // W source to wasm bytes in-process — no external toolchain.
  const char* kPluginSource = R"(
    export fn run() -> i32 {
      var n: i32 = input_len();
      input_read(0, 0, n);
      var sum: i32 = 0;
      var i: i32 = 0;
      while (i < n) {
        sum = sum + load8u(i);
        i = i + 1;
      }
      store32(4096, sum);
      output_write(4096, 4);
      return 0;
    }
  )";
  auto module_bytes = wcc::compile(kPluginSource);
  if (!module_bytes.ok()) {
    std::printf("compile error: %s\n", module_bytes.error().message.c_str());
    return 1;
  }
  std::printf("compiled plugin: %zu bytes of wasm\n", module_bytes->size());

  // 3. Load under a fuel budget (the 5G slot deadline in miniature).
  plugin::PluginLimits limits;
  limits.fuel_per_call = 100'000;
  plugin::PluginManager manager(limits);
  if (auto st = manager.install("demo", *module_bytes); !st.ok()) {
    std::printf("install error: %s\n", st.error().message.c_str());
    return 1;
  }

  // 4. Call through the ABI.
  std::vector<uint8_t> input = {10, 20, 30, 40};
  auto output = manager.call("demo", "run", input);
  if (!output.ok()) {
    std::printf("call error: %s\n", output.error().message.c_str());
    return 1;
  }
  int32_t sum;
  std::memcpy(&sum, output->data(), 4);
  std::printf("plugin computed sum(10,20,30,40) = %d\n", sum);

  // 5a. A "vendor update" ships a bug: out-of-bounds access. The sandbox
  // catches it; the host keeps running.
  auto buggy = wcc::compile("export fn run() -> i32 { return load32(-8); }");
  if (auto st = manager.swap("demo", *buggy); !st.ok()) {
    std::printf("swap error: %s\n", st.error().message.c_str());
    return 1;
  }
  auto crash = manager.call("demo", "run", input);
  std::printf("buggy update contained: %s\n",
              crash.ok() ? "UNEXPECTED SUCCESS" : crash.error().message.c_str());

  // 5b. Hot-swap the fix — no restart, state machine keeps going.
  if (auto st = manager.swap("demo", *module_bytes); !st.ok()) {
    std::printf("swap error: %s\n", st.error().message.c_str());
    return 1;
  }
  auto healed = manager.call("demo", "run", input);
  std::memcpy(&sum, healed->data(), 4);
  std::printf("after hot-swap, plugin works again: sum = %d\n", sum);
  std::printf("slot health: %llu calls, %llu faults, %llu swaps\n",
              static_cast<unsigned long long>(manager.cost("demo")->calls()),
              static_cast<unsigned long long>(manager.health("demo")->faults),
              static_cast<unsigned long long>(manager.health("demo")->swaps));
  return 0;
}
