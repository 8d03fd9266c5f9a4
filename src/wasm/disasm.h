// Disassembler: renders a decoded module as WAT-flavoured text. Used by the
// `waranc` CLI (`waranc dump plugin.wasm`) and by tests/debugging — when a
// plugin misbehaves, operators inspect exactly what bytecode the vendor
// shipped (the paper's §3A "static analysis before deployment" workflow).
#pragma once

#include <string>

#include "wasm/module.h"

namespace waran::wasm {

/// Whole-module listing: types, imports, memory/table/globals, exports and
/// every function body with structured indentation.
std::string disassemble(const Module& module);

/// One function body (index into the defined-function space).
std::string disassemble_function(const Module& module, uint32_t defined_index);

/// The translated micro-op stream of one defined function (wasm/translate.h):
/// one line per micro-op with fused superinstruction names, resolved branch
/// targets (`-> @n`, or `-> @ret` for branches to the function label) and
/// the baked fuel-segment charges. Uses the module's attached translation
/// when present, else lowers the body on the fly. Debug/inspection aid for
/// the threaded interpreter ("which stream does my plugin actually run?").
std::string disassemble_translated(const Module& module, uint32_t defined_index);

}  // namespace waran::wasm
