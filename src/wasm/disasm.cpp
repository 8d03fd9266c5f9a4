#include "wasm/disasm.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "wasm/translate.h"

namespace waran::wasm {
namespace {

void append_limits(std::ostringstream& out, const Limits& l) {
  out << l.min;
  if (l.max) out << " " << *l.max;
}

const char* kind_name(ImportKind k) {
  switch (k) {
    case ImportKind::kFunc: return "func";
    case ImportKind::kTable: return "table";
    case ImportKind::kMemory: return "memory";
    case ImportKind::kGlobal: return "global";
  }
  return "?";
}

void append_value(std::ostringstream& out, const ConstExpr& e) {
  switch (e.kind) {
    case ConstExpr::Kind::kI32: out << "i32.const " << e.value.as_i32(); break;
    case ConstExpr::Kind::kI64: out << "i64.const " << e.value.as_i64(); break;
    case ConstExpr::Kind::kF32: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "f32.const %.9g",
                    static_cast<double>(e.value.as_f32()));
      out << buf;
      break;
    }
    case ConstExpr::Kind::kF64: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "f64.const %.17g", e.value.as_f64());
      out << buf;
      break;
    }
    case ConstExpr::Kind::kGlobalGet: out << "global.get " << e.global_index; break;
  }
}

void append_instr(std::ostringstream& out, const Code& code, const Instr& ins) {
  out << to_string(ins.op);
  switch (ins.op) {
    case Op::kBlock:
    case Op::kLoop:
    case Op::kIf:
      if (ins.block_arity != 0) {
        uint32_t raw = code.body[ins.imm.ctrl.end_pc].imm.index;
        if (is_val_type(static_cast<uint8_t>(raw))) {
          out << " (result " << to_string(static_cast<ValType>(raw)) << ")";
        }
      }
      break;
    case Op::kBr:
    case Op::kBrIf:
    case Op::kCall:
    case Op::kLocalGet:
    case Op::kLocalSet:
    case Op::kLocalTee:
    case Op::kGlobalGet:
    case Op::kGlobalSet:
      out << " " << ins.imm.index;
      break;
    case Op::kBrTable: {
      const BrTable& bt = code.br_tables[ins.imm.br_table_index];
      for (uint32_t t : bt.targets) out << " " << t;
      out << " " << bt.default_target;
      break;
    }
    case Op::kCallIndirect:
      out << " (type " << ins.imm.call_indirect.type_index << ")";
      break;
    case Op::kI32Const:
      out << " " << ins.imm.i32;
      break;
    case Op::kI64Const:
      out << " " << ins.imm.i64;
      break;
    case Op::kF32Const: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %.9g", static_cast<double>(ins.imm.f32));
      out << buf;
      break;
    }
    case Op::kF64Const: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %.17g", ins.imm.f64);
      out << buf;
      break;
    }
    default:
      if (ins.op >= Op::kI32Load && ins.op <= Op::kI64Store32) {
        if (ins.imm.mem.offset != 0) out << " offset=" << ins.imm.mem.offset;
        out << " align=" << (1u << ins.imm.mem.align);
      }
      break;
  }
}

void append_body(std::ostringstream& out, const Code& code, const char* base_indent) {
  int depth = 1;
  for (size_t pc = 0; pc < code.body.size(); ++pc) {
    const Instr& ins = code.body[pc];
    if (ins.op == Op::kEnd || ins.op == Op::kElse) --depth;
    if (depth < 0) depth = 0;
    out << base_indent;
    for (int i = 0; i < depth; ++i) out << "  ";
    append_instr(out, code, ins);
    out << "\n";
    if (ins.op == Op::kBlock || ins.op == Op::kLoop || ins.op == Op::kIf ||
        ins.op == Op::kElse) {
      ++depth;
    }
  }
}

void append_signature(std::ostringstream& out, const FuncType& type) {
  if (!type.params.empty()) {
    out << " (param";
    for (ValType p : type.params) out << " " << to_string(p);
    out << ")";
  }
  if (!type.results.empty()) {
    out << " (result";
    for (ValType r : type.results) out << " " << to_string(r);
    out << ")";
  }
}

}  // namespace

std::string disassemble_function(const Module& module, uint32_t defined_index) {
  std::ostringstream out;
  uint32_t func_index = module.num_imported_funcs + defined_index;
  const Code& code = module.codes[defined_index];
  out << "  (func $" << func_index;
  append_signature(out, module.func_type(func_index));
  out << "\n";
  if (!code.locals.empty()) {
    out << "    (local";
    for (ValType l : code.locals) out << " " << to_string(l);
    out << ")\n";
  }
  append_body(out, code, "  ");
  out << "  )\n";
  return out.str();
}

std::string disassemble(const Module& module) {
  std::ostringstream out;
  out << "(module\n";
  for (size_t i = 0; i < module.types.size(); ++i) {
    out << "  (type " << i << " (func";
    append_signature(out, module.types[i]);
    out << "))\n";
  }
  for (const Import& imp : module.imports) {
    out << "  (import \"" << imp.module << "\" \"" << imp.name << "\" ("
        << kind_name(imp.kind);
    if (imp.kind == ImportKind::kFunc) {
      append_signature(out, module.types[imp.type_index]);
    }
    out << "))\n";
  }
  if (module.memory) {
    out << "  (memory ";
    append_limits(out, *module.memory);
    out << ")\n";
  }
  if (module.table) {
    out << "  (table ";
    append_limits(out, module.table->limits);
    out << " funcref)\n";
  }
  for (size_t i = 0; i < module.globals.size(); ++i) {
    const Global& g = module.globals[i];
    out << "  (global " << (module.num_imported_globals + i) << " "
        << (g.type.mut ? "(mut " : "(") << to_string(g.type.type) << ") (";
    append_value(out, g.init);
    out << "))\n";
  }
  for (const Export& e : module.exports) {
    out << "  (export \"" << e.name << "\" (" << kind_name(e.kind) << " " << e.index
        << "))\n";
  }
  if (module.start) out << "  (start " << *module.start << ")\n";
  for (const ElemSegment& seg : module.elems) {
    out << "  (elem (";
    append_value(out, seg.offset);
    out << ")";
    for (uint32_t fi : seg.func_indices) out << " " << fi;
    out << ")\n";
  }
  for (const DataSegment& seg : module.datas) {
    out << "  (data (";
    append_value(out, seg.offset);
    out << ") \"";
    static const char* kHex = "0123456789abcdef";
    for (uint8_t b : seg.bytes) {
      out << "\\" << kHex[b >> 4] << kHex[b & 0xf];
    }
    out << "\")\n";
  }
  for (size_t i = 0; i < module.codes.size(); ++i) {
    out << disassemble_function(module, static_cast<uint32_t>(i));
  }
  out << ")\n";
  return out.str();
}

namespace {

bool uop_in(UOp op, UOp lo, UOp hi) {
  const auto v = static_cast<uint16_t>(op);
  return v >= static_cast<uint16_t>(lo) && v <= static_cast<uint16_t>(hi);
}

void append_target(std::ostringstream& out, uint32_t target, uint32_t charge) {
  if (target == kRetTarget) {
    out << " -> @ret";
  } else {
    out << " -> @" << target << " charge=" << charge;
  }
}

void append_uop(std::ostringstream& out, const TranslatedFunc& tf, const UInstr& u) {
  out << uop_name(u.op);
  switch (u.op) {
    case UOp::kSeg:
      out << " charge=" << u.b;
      return;
    case UOp::kBr:
    case UOp::kBrIf:
      if (u.b != kRetTarget) {
        out << " keep=" << u.a << " height=" << u.imm.pair.x;
      }
      append_target(out, u.b, u.imm.pair.y);
      return;
    case UOp::kJump:
    case UOp::kJumpZ:
    case UOp::kJumpNZ:
      append_target(out, u.b, u.imm.pair.y);
      return;
    case UOp::kBrTable: {
      // pair.x explicit targets, then the default arm.
      for (uint32_t i = 0; i <= u.imm.pair.x; ++i) {
        const UBrEntry& e = tf.br_entries[u.b + i];
        out << (i == 0 ? " [" : " ");
        if (i == u.imm.pair.x) out << "default:";
        if (e.target == kRetTarget) {
          out << "@ret";
        } else {
          out << "@" << e.target << "(charge=" << e.seg << ")";
        }
      }
      out << "]";
      return;
    }
    case UOp::kCallWasm:
      out << " func=" << u.b;
      return;
    case UOp::kCallHost:
      out << " import=" << u.b << " nparams=" << u.a
          << (u.imm.pair.x != 0 ? " -> result" : "");
      return;
    case UOp::kCallIndirect:
      out << " type=" << u.b << " nparams=" << u.a
          << (u.imm.pair.x != 0 ? " -> result" : "");
      return;
    case UOp::kConst: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " bits=0x%" PRIx64, u.imm.u64);
      out << buf;
      return;
    }
    case UOp::kLocalMove:
      out << " l" << u.a << " -> l" << u.b;
      return;
    case UOp::kLCAddSetI32:
      out << " l" << u.b << " = l" << u.a << " + " << u.imm.i32;
      return;
    default:
      break;
  }
  if (uop_in(u.op, UOp::kLocalGet, UOp::kLocalTee) ||
      uop_in(u.op, UOp::kGlobalGet, UOp::kGlobalSet)) {
    out << " " << u.b;
  } else if (uop_in(u.op, UOp::kI32Load, UOp::kI64Store32)) {
    out << " offset=" << u.b;
  } else if (uop_in(u.op, UOp::kLLAddI32, UOp::kLLXorI32) ||
             uop_in(u.op, UOp::kLLEqI32, UOp::kLLGeUI32)) {
    out << " l" << u.a << ", l" << u.b;
  } else if (uop_in(u.op, UOp::kLCAddI32, UOp::kLCShrUI32) ||
             uop_in(u.op, UOp::kLCEqI32, UOp::kLCGeUI32)) {
    out << " l" << u.a << ", " << u.imm.i32;
  } else if (uop_in(u.op, UOp::kCAddI32, UOp::kCAndI32)) {
    out << " " << u.imm.i32;
  } else if (uop_in(u.op, UOp::kBrIfLLEq, UOp::kBrIfLLGeU)) {
    out << " l" << u.a << ", l" << u.imm.pair.x;
    append_target(out, u.b, u.imm.pair.y);
  } else if (uop_in(u.op, UOp::kBrIfLCEq, UOp::kBrIfLCGeU)) {
    out << " l" << u.a << ", " << static_cast<int32_t>(u.imm.pair.x);
    append_target(out, u.b, u.imm.pair.y);
  }
}

}  // namespace

std::string disassemble_translated(const Module& module, uint32_t defined_index) {
  // The module's shared translation when attached, else a fresh lowering.
  TranslatedFunc local;
  const TranslatedFunc* tf;
  if (module.translated && defined_index < module.translated->funcs.size()) {
    tf = &module.translated->funcs[defined_index];
  } else {
    auto tfr = translate_function(module, defined_index);
    if (!tfr.ok()) return "<translate error: " + tfr.error().message + ">\n";
    local = std::move(*tfr);
    tf = &local;
  }
  std::ostringstream out;
  out << ";; func " << (module.num_imported_funcs + defined_index) << ": "
      << tf->ops.size() << " uops, max_stack=" << tf->max_stack << ", params="
      << tf->num_params << ", locals=" << tf->num_locals << ", results="
      << static_cast<int>(tf->result_arity) << "\n";
  for (size_t i = 0; i < tf->ops.size(); ++i) {
    char head[24];
    std::snprintf(head, sizeof(head), "@%-5zu ", i);
    out << head;
    append_uop(out, *tf, tf->ops[i]);
    out << "\n";
  }
  return out.str();
}

}  // namespace waran::wasm
