#include "plugin/plugin.h"

#include <algorithm>

#include "common/log.h"

namespace waran::plugin {

using wasm::FuncType;
using wasm::HostContext;
using wasm::HostFunc;
using wasm::ValType;
using wasm::Value;

// The base ABI, mirroring Extism's input/output model:
//   waran.input_len() -> i32
//   waran.input_read(dst, off, len) -> i32   bytes actually copied
//   waran.output_write(ptr, len)             replaces the output buffer
//   waran.log(ptr, len)                      debug channel
//   waran.abort(code)                        traps with the given code
void Plugin::register_abi(wasm::Linker& linker) {
  auto exchange_of = [](HostContext& ctx) {
    return static_cast<Exchange*>(ctx.user_data);
  };

  linker.register_func(
      "waran", "input_len",
      HostFunc{FuncType{{}, {ValType::kI32}},
               [exchange_of](HostContext& ctx, std::span<const Value>)
                   -> Result<std::optional<Value>> {
                 auto* ex = exchange_of(ctx);
                 return std::optional<Value>(
                     Value::from_u32(static_cast<uint32_t>(ex->input.size())));
               }});

  linker.register_func(
      "waran", "input_read",
      HostFunc{FuncType{{ValType::kI32, ValType::kI32, ValType::kI32}, {ValType::kI32}},
               [exchange_of](HostContext& ctx, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 auto* ex = exchange_of(ctx);
                 uint32_t dst = args[0].as_u32();
                 uint32_t off = args[1].as_u32();
                 uint32_t len = args[2].as_u32();
                 if (off >= ex->input.size()) {
                   return std::optional<Value>(Value::from_i32(0));
                 }
                 uint32_t n = std::min<uint32_t>(
                     len, static_cast<uint32_t>(ex->input.size()) - off);
                 wasm::Memory* mem = ctx.instance.memory();
                 if (mem == nullptr) return Error::trap("plugin has no memory");
                 WARAN_CHECK_OK(mem->write_bytes(
                     dst, std::span<const uint8_t>(ex->input.data() + off, n)));
                 return std::optional<Value>(Value::from_u32(n));
               }});

  linker.register_func(
      "waran", "output_write",
      HostFunc{FuncType{{ValType::kI32, ValType::kI32}, {}},
               [exchange_of](HostContext& ctx, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 auto* ex = exchange_of(ctx);
                 uint32_t ptr = args[0].as_u32();
                 uint32_t len = args[1].as_u32();
                 if (len > ex->max_output_bytes) {
                   return Error::trap("plugin output exceeds limit");
                 }
                 wasm::Memory* mem = ctx.instance.memory();
                 if (mem == nullptr) return Error::trap("plugin has no memory");
                 ex->output.resize(len);
                 WARAN_CHECK_OK(mem->read_bytes(ptr, ex->output));
                 return std::optional<Value>{};
               }});

  linker.register_func(
      "waran", "log",
      HostFunc{FuncType{{ValType::kI32, ValType::kI32}, {}},
               [exchange_of](HostContext& ctx, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 auto* ex = exchange_of(ctx);
                 uint32_t ptr = args[0].as_u32();
                 uint32_t len = std::min<uint32_t>(args[1].as_u32(), 4096);
                 wasm::Memory* mem = ctx.instance.memory();
                 if (mem == nullptr) return Error::trap("plugin has no memory");
                 std::string line(len, '\0');
                 WARAN_CHECK_OK(mem->read_bytes(
                     ptr, std::span<uint8_t>(reinterpret_cast<uint8_t*>(line.data()), len)));
                 ex->log.push_back(std::move(line));
                 return std::optional<Value>{};
               }});

  linker.register_func(
      "waran", "abort",
      HostFunc{FuncType{{ValType::kI32}, {}},
               [](HostContext&, std::span<const Value> args)
                   -> Result<std::optional<Value>> {
                 return Error::trap("plugin aborted with code " +
                                    std::to_string(args[0].as_i32()));
               }});
}

Result<std::unique_ptr<Plugin>> Plugin::load(std::span<const uint8_t> module_bytes,
                                             const wasm::Linker& extra_host,
                                             const PluginLimits& limits) {
  auto plugin = std::unique_ptr<Plugin>(new Plugin());
  plugin->limits_ = limits;
  plugin->exchange_.max_output_bytes = limits.max_output_bytes;

  WARAN_TRY(module, wasm::decode_module(module_bytes));
  WARAN_CHECK_OK(wasm::validate_module(module));
  // Lower to the micro-op stream once here so every instance of this plugin
  // shares the translation instead of re-lowering at instantiate time.
  WARAN_CHECK_OK(wasm::translate_module(module));
  plugin->module_ = std::make_shared<const wasm::Module>(std::move(module));

  // Compose: base ABI first, then embedder functions (which may override —
  // tests rely on that for fault injection).
  wasm::Linker linker;
  register_abi(linker);
  // Linker has no iteration API by design; copy via a merged registration.
  // extra_host takes precedence.
  wasm::Linker merged = linker;
  for (const auto& imp : plugin->module_->imports) {
    if (imp.kind == wasm::ImportKind::kFunc) {
      if (const wasm::HostFunc* hf = extra_host.lookup(imp.module, imp.name)) {
        merged.register_func(imp.module, imp.name, *hf);
      }
    }
  }

  wasm::InstanceOptions options;
  options.user_data = &plugin->exchange_;
  WARAN_TRY(instance, wasm::Instance::instantiate(plugin->module_, merged, options));
  plugin->instance_ = std::move(instance);

  if (plugin->instance_->memory() == nullptr) {
    return Error::validation("plugin must define a linear memory");
  }
  return plugin;
}

bool Plugin::has_export(const std::string& fn) const {
  return instance_->find_export(fn, wasm::ImportKind::kFunc).has_value();
}

size_t Plugin::memory_bytes() const {
  const wasm::Memory* mem = instance_->memory();
  return mem != nullptr ? mem->size_bytes() : 0;
}

Result<std::vector<uint8_t>> Plugin::call(const std::string& fn,
                                          std::span<const uint8_t> input,
                                          const CallOverrides& overrides) {
  last_call_stats_ = {};
  if (input.size() > limits_.max_input_bytes) {
    return Error::limit_exceeded("plugin input exceeds limit");
  }
  exchange_.input.assign(input.begin(), input.end());
  exchange_.output.clear();
  exchange_.log.clear();

  // Per-call policy: fuel_per_call maps directly onto CallOptions (0 means
  // unmetered in both vocabularies), and the optional wall-clock deadline
  // rides along. The instance restores its fuel state after the call.
  wasm::CallOptions options;
  options.fuel = overrides.fuel.value_or(limits_.fuel_per_call);
  uint64_t deadline_ns = overrides.deadline_ns.value_or(limits_.deadline_ns_per_call);
  if (deadline_ns > 0) {
    options.deadline = std::chrono::nanoseconds(deadline_ns);
  }

  auto result = instance_->call(fn, {}, options, &last_call_stats_);
  if (!result.ok()) return result.error();
  if (!result->has_value() || (*result)->type != ValType::kI32) {
    return Error::validation("plugin entrypoint must have type () -> i32");
  }
  int32_t code = (*result)->value.as_i32();
  if (code != 0) {
    // A nonzero status is the plugin *deliberately* rejecting the input
    // (e.g. a comm plugin refusing a corrupt frame) — an application-level
    // outcome, not a sandbox fault.
    return Error::state("plugin returned status " + std::to_string(code));
  }
  return exchange_.output;
}

}  // namespace waran::plugin
