#pragma once
// Stack bytecode for compiled constraint expressions.
//
// This is the C++ analogue of the paper's "dynamic runtime compilation" of
// Function constraints (§4.3.2): a constraint expression is compiled once to
// a flat instruction sequence with variables resolved to dense slots, so the
// per-evaluation cost drops from tree walking + hash lookups to a tight
// switch loop over contiguous instructions.
//
// Variables are read through a caller-provided slot map, so the same Program
// can run directly against a solver's global value array without copying:
// LoadVar(slot) reads values[slot_map[slot]].

#include <cstdint>
#include <string>
#include <vector>

#include "tunespace/csp/value.hpp"

namespace tunespace::expr {

/// VM opcodes.
enum class Op : std::uint8_t {
  PushConst,        ///< push consts[arg]
  LoadVar,          ///< push values[slot_map[arg]]
  Add, Sub, Mul, TrueDiv, FloorDiv, Mod, Pow,
  Neg, Not, ToBool,
  CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe,
  InConst,          ///< membership of top-of-stack in tuple_consts[arg]
  NotInConst,
  Dup,              ///< duplicate top
  Rot2,             ///< swap top two
  Rot3,             ///< move top below the next two
  Pop,
  Jump,             ///< unconditional, absolute target = arg
  JumpIfFalseOrPop, ///< if top falsy: jump keeping top; else pop and continue
  JumpIfTrueOrPop,  ///< if top truthy: jump keeping top; else pop and continue
  PopJumpIfFalse,   ///< pop; jump when the popped value is falsy
  CallMin,          ///< arg = argc
  CallMax,          ///< arg = argc
  CallAbs,
  CallPow,
  CallGcd,
  CallInt,
  CallFloat,
  Return,
};

/// One instruction: opcode plus immediate.
struct Instr {
  Op op;
  std::int32_t arg = 0;
};

/// A compiled expression.
class Program {
 public:
  Program() = default;
  Program(std::vector<Instr> code, std::vector<csp::Value> consts,
          std::vector<std::vector<csp::Value>> tuple_consts,
          std::vector<std::string> var_names, std::size_t max_stack);

  /// Variable names in slot order; the caller builds slot_map accordingly.
  const std::vector<std::string>& var_names() const { return var_names_; }
  const std::vector<Instr>& code() const { return code_; }
  /// Constant pool indexed by PushConst.
  const std::vector<csp::Value>& consts() const { return consts_; }
  /// Tuple constant pool indexed by InConst/NotInConst.
  const std::vector<std::vector<csp::Value>>& tuple_consts() const {
    return tuple_consts_;
  }
  std::size_t max_stack() const { return max_stack_; }

  /// Execute against a dense value array: variable slot s reads
  /// values[slot_map[s]].  slot_map must have var_names().size() entries.
  /// Throws EvalError on runtime failures (division by zero etc.).
  csp::Value run(const csp::Value* values, const std::uint32_t* slot_map) const;

  /// Execute and coerce the result to truthiness.
  bool run_bool(const csp::Value* values, const std::uint32_t* slot_map) const;

  /// Human-readable disassembly for debugging and the Fig. 1 pipeline demo.
  std::string disassemble() const;

 private:
  csp::Value run_on(csp::Value* stack, const csp::Value* values,
                    const std::uint32_t* slot_map) const;

  std::vector<Instr> code_;
  std::vector<csp::Value> consts_;
  std::vector<std::vector<csp::Value>> tuple_consts_;
  std::vector<std::string> var_names_;
  std::size_t max_stack_ = 0;
};

}  // namespace tunespace::expr
