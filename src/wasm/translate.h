// Translation pass: lowers each validated function body from the decoder's
// structured Instr vector into a flat, execution-oriented micro-op stream.
// The stream is what Instance::run actually executes:
//   - control flow is pre-resolved: block/loop/if/br/br_if/br_table compile
//     to direct jumps carrying baked-in (target, keep, height) tuples, so the
//     interpreter needs no runtime label stack;
//   - fuel-segment charges become explicit kSeg micro-ops (or immediates on
//     branch micro-ops), placed so metered semantics are bit-identical to the
//     structured interpreter's charge points;
//   - hot peephole patterns emitted by wcc (local.get local.get <binop>,
//     local.get <const> <cmp> br_if, local.get local.set, ...) fuse into
//     single superinstruction micro-ops.
// See doc/interpreter.md ("Translation pipeline") for the full mapping.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "wasm/module.h"

namespace waran::wasm {

// Every micro-op, in dispatch-table order. The list is expanded twice by the
// interpreter core (wasm/interp_loop.inc): once into `case` labels for the
// portable switch loop and once into a computed-goto `&&label` table for
// threaded dispatch, so a missing handler is a compile error, not a runtime
// hole. Naming: LL* = two-local operand form, LC* = local+constant form,
// C* = const folded into the top of stack, BrIfLL*/BrIfLC* = fused
// compare-and-branch.
#define WARAN_UOP_LIST(X)                                                     \
  /* control */                                                               \
  X(Seg) X(Br) X(BrIf) X(Jump) X(JumpZ) X(JumpNZ) X(BrTable) X(Return)        \
  X(Unreachable) X(CallWasm) X(CallHost) X(CallIndirect)                      \
  /* parametric & variables */                                                \
  X(Drop) X(Select) X(LocalGet) X(LocalSet) X(LocalTee) X(GlobalGet)          \
  X(GlobalSet) X(Const)                                                       \
  /* memory */                                                                \
  X(I32Load) X(I64Load) X(F32Load) X(F64Load)                                 \
  X(I32Load8S) X(I32Load8U) X(I32Load16S) X(I32Load16U)                       \
  X(I64Load8S) X(I64Load8U) X(I64Load16S) X(I64Load16U)                       \
  X(I64Load32S) X(I64Load32U)                                                 \
  X(I32Store) X(I64Store) X(F32Store) X(F64Store)                             \
  X(I32Store8) X(I32Store16) X(I64Store8) X(I64Store16) X(I64Store32)         \
  X(MemorySize) X(MemoryGrow) X(MemoryCopy) X(MemoryFill)                     \
  /* comparisons */                                                           \
  X(I32Eqz) X(I32Eq) X(I32Ne) X(I32LtS) X(I32LtU) X(I32GtS) X(I32GtU)         \
  X(I32LeS) X(I32LeU) X(I32GeS) X(I32GeU)                                     \
  X(I64Eqz) X(I64Eq) X(I64Ne) X(I64LtS) X(I64LtU) X(I64GtS) X(I64GtU)         \
  X(I64LeS) X(I64LeU) X(I64GeS) X(I64GeU)                                     \
  X(F32Eq) X(F32Ne) X(F32Lt) X(F32Gt) X(F32Le) X(F32Ge)                       \
  X(F64Eq) X(F64Ne) X(F64Lt) X(F64Gt) X(F64Le) X(F64Ge)                       \
  /* numeric */                                                               \
  X(I32Clz) X(I32Ctz) X(I32Popcnt) X(I32Add) X(I32Sub) X(I32Mul)              \
  X(I32DivS) X(I32DivU) X(I32RemS) X(I32RemU) X(I32And) X(I32Or) X(I32Xor)    \
  X(I32Shl) X(I32ShrS) X(I32ShrU) X(I32Rotl) X(I32Rotr)                       \
  X(I64Clz) X(I64Ctz) X(I64Popcnt) X(I64Add) X(I64Sub) X(I64Mul)              \
  X(I64DivS) X(I64DivU) X(I64RemS) X(I64RemU) X(I64And) X(I64Or) X(I64Xor)    \
  X(I64Shl) X(I64ShrS) X(I64ShrU) X(I64Rotl) X(I64Rotr)                       \
  X(F32Abs) X(F32Neg) X(F32Ceil) X(F32Floor) X(F32Trunc) X(F32Nearest)        \
  X(F32Sqrt) X(F32Add) X(F32Sub) X(F32Mul) X(F32Div) X(F32Min) X(F32Max)      \
  X(F32Copysign)                                                              \
  X(F64Abs) X(F64Neg) X(F64Ceil) X(F64Floor) X(F64Trunc) X(F64Nearest)        \
  X(F64Sqrt) X(F64Add) X(F64Sub) X(F64Mul) X(F64Div) X(F64Min) X(F64Max)      \
  X(F64Copysign)                                                              \
  /* conversions (reinterprets are identities on untagged cells: elided) */   \
  X(I32WrapI64)                                                               \
  X(I32TruncF32S) X(I32TruncF32U) X(I32TruncF64S) X(I32TruncF64U)             \
  X(I64TruncF32S) X(I64TruncF32U) X(I64TruncF64S) X(I64TruncF64U)             \
  X(I32TruncSatF32S) X(I32TruncSatF32U) X(I32TruncSatF64S)                    \
  X(I32TruncSatF64U) X(I64TruncSatF32S) X(I64TruncSatF32U)                    \
  X(I64TruncSatF64S) X(I64TruncSatF64U)                                       \
  X(I64ExtendI32S) X(I64ExtendI32U)                                           \
  X(F32ConvertI32S) X(F32ConvertI32U) X(F32ConvertI64S) X(F32ConvertI64U)     \
  X(F32DemoteF64)                                                             \
  X(F64ConvertI32S) X(F64ConvertI32U) X(F64ConvertI64S) X(F64ConvertI64U)     \
  X(F64PromoteF32)                                                            \
  X(I32Extend8S) X(I32Extend16S) X(I64Extend8S) X(I64Extend16S)               \
  X(I64Extend32S)                                                             \
  /* fused superinstructions */                                               \
  X(LLAddI32) X(LLSubI32) X(LLMulI32) X(LLAndI32) X(LLOrI32) X(LLXorI32)      \
  X(LCAddI32) X(LCMulI32) X(LCAndI32) X(LCOrI32) X(LCXorI32) X(LCShlI32)      \
  X(LCShrSI32) X(LCShrUI32)                                                   \
  X(CAddI32) X(CMulI32) X(CAndI32)                                            \
  X(LLEqI32) X(LLNeI32) X(LLLtSI32) X(LLLtUI32) X(LLGtSI32) X(LLGtUI32)       \
  X(LLLeSI32) X(LLLeUI32) X(LLGeSI32) X(LLGeUI32)                             \
  X(LCEqI32) X(LCNeI32) X(LCLtSI32) X(LCLtUI32) X(LCGtSI32) X(LCGtUI32)       \
  X(LCLeSI32) X(LCLeUI32) X(LCGeSI32) X(LCGeUI32)                             \
  X(BrIfLLEq) X(BrIfLLNe) X(BrIfLLLtS) X(BrIfLLLtU) X(BrIfLLGtS)              \
  X(BrIfLLGtU) X(BrIfLLLeS) X(BrIfLLLeU) X(BrIfLLGeS) X(BrIfLLGeU)            \
  X(BrIfLCEq) X(BrIfLCNe) X(BrIfLCLtS) X(BrIfLCLtU) X(BrIfLCGtS)              \
  X(BrIfLCGtU) X(BrIfLCLeS) X(BrIfLCLeU) X(BrIfLCGeS) X(BrIfLCGeU)            \
  X(LocalMove) X(LCAddSetI32)

enum class UOp : uint16_t {
#define WARAN_UOP_ENUM(name) k##name,
  WARAN_UOP_LIST(WARAN_UOP_ENUM)
#undef WARAN_UOP_ENUM
};

inline constexpr size_t kNumUOps = 0
#define WARAN_UOP_COUNT(name) +1
    WARAN_UOP_LIST(WARAN_UOP_COUNT)
#undef WARAN_UOP_COUNT
    ;

/// Branch/jump target meaning "pop the current frame" (a branch to the
/// function-level label). Valid micro-op indices never reach this value.
inline constexpr uint32_t kRetTarget = UINT32_MAX;

/// One micro-op, 16 bytes. Field use by op:
///   kSeg             b = fuel-segment length to charge
///   kBr/kBrIf        a = values kept across the branch, b = target micro-op
///                    (kRetTarget: return), pair = {unwind height, taken seg}
///   kJump/kJumpZ/NZ  b = target micro-op, pair.y = taken-edge seg
///   kBrTable         b = base into TranslatedFunc::br_entries,
///                    pair.x = number of explicit targets (default follows)
///   kCallWasm        b = callee function index
///   kCallHost        b = import index, a = #params, pair.x = has result
///   kCallIndirect    b = expected type index, a = #params, pair.x = has result
///   kConst           imm.u64 = pre-built Value bits
///   local/global ops b = index; loads/stores: b = memarg offset
///   LL*              a = lhs local, b = rhs local
///   LC*              a = lhs local, imm.i32 = constant (shift counts
///                    pre-masked; LCSub is canonicalized into LCAdd)
///   C*               imm.i32 = constant applied to the stack top in place
///   BrIfLL*/BrIfLC*  a = lhs local, pair.x = rhs local / constant bits,
///                    b = target (kRetTarget: return), pair.y = taken seg
///   kLocalMove       a = src local, b = dst local
///   kLCAddSetI32     a = src local, b = dst local, imm.i32 = addend
struct UInstr {
  UOp op = UOp::kUnreachable;
  uint16_t a = 0;
  uint32_t b = 0;
  union {
    uint64_t u64;
    int32_t i32;
    struct {
      uint32_t x;
      uint32_t y;
    } pair;
  } imm = {};
};

static_assert(sizeof(UInstr) == 16, "keep the micro-op cell compact");

/// One resolved br_table arm: where to jump, what to charge, how to unwind.
struct UBrEntry {
  uint32_t target = 0;  // micro-op index, or kRetTarget
  uint32_t seg = 0;     // taken-edge fuel segment
  uint32_t height = 0;  // operand-stack height to unwind to (frame-relative)
  uint16_t keep = 0;    // values carried across the branch
};

/// The translated form of one defined function.
struct TranslatedFunc {
  std::vector<UInstr> ops;
  std::vector<UBrEntry> br_entries;
  /// Worst-case operand-stack height (validator- and translator-computed);
  /// the interpreter reserves this once at frame entry and then runs a raw
  /// Value* stack pointer with no per-push capacity checks.
  uint32_t max_stack = 0;
  uint32_t num_params = 0;
  uint32_t num_locals = 0;  // params + declared locals
  uint8_t result_arity = 0;
};

struct TranslatedModule {
  std::vector<TranslatedFunc> funcs;  // parallel to Module::codes
};

const char* uop_name(UOp op);

/// Lowers defined function `defined_index` (index into Module::codes). The
/// module must already be validated; on a validated module this only fails
/// on representation limits (e.g. >64k locals referenced by a fused op is
/// simply not fused, but >64k parameters cannot be encoded at all).
Result<TranslatedFunc> translate_function(const Module& m, uint32_t defined_index);

/// Lowers every defined function.
Result<std::shared_ptr<const TranslatedModule>> translate(const Module& m);

/// Lowers every defined function and attaches the result to `m.translated`
/// so all instances share one stream. Instance::instantiate translates on
/// the fly when this was not called.
Status translate_module(Module& m);

/// Miscompile firewall hook. When set (waran::analysis installs its stream
/// verifier here; see analysis/analysis.h), translate_function() checks its
/// own output, so a bad lowering fails at translation time instead of
/// surfacing as a runtime divergence. Null (the default) skips all checks —
/// the production hot path pays nothing. The hook must be thread-safe and
/// is read with relaxed atomics; install it once at startup, before
/// translation runs on other threads.
using StreamFirewall = Status (*)(const Module&, const TranslatedFunc&);
void set_stream_firewall(StreamFirewall fw);
StreamFirewall stream_firewall();

}  // namespace waran::wasm
