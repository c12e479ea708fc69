#include "tunespace/expr/bytecode.hpp"

#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "tunespace/expr/interpreter.hpp"

namespace tunespace::expr {

using csp::Value;

Program::Program(std::vector<Instr> code, std::vector<Value> consts,
                 std::vector<std::vector<Value>> tuple_consts,
                 std::vector<std::string> var_names, std::size_t max_stack)
    : code_(std::move(code)),
      consts_(std::move(consts)),
      tuple_consts_(std::move(tuple_consts)),
      var_names_(std::move(var_names)),
      max_stack_(max_stack) {}

Value Program::run(const Value* values, const std::uint32_t* slot_map) const {
  // Stack storage sized to the compiler-computed maximum depth: a tiny
  // inline buffer for the common short constraint, a medium one for larger
  // expressions, heap only for pathological depths.  Constructing exactly
  // as many Values as can be touched keeps short-program dispatch cheap.
  if (max_stack_ <= 6) {
    Value stack[6];
    return run_on(stack, values, slot_map);
  }
  if (max_stack_ <= 24) {
    Value stack[24];
    return run_on(stack, values, slot_map);
  }
  std::vector<Value> heap_stack(max_stack_);
  return run_on(heap_stack.data(), values, slot_map);
}

Value Program::run_on(Value* stack, const Value* values,
                      const std::uint32_t* slot_map) const {
  std::size_t sp = 0;  // next free slot

  const Instr* code = code_.data();
  const std::size_t n = code_.size();
  for (std::size_t pc = 0; pc < n; ++pc) {
    const Instr ins = code[pc];
    switch (ins.op) {
      case Op::PushConst:
        stack[sp++] = consts_[static_cast<std::size_t>(ins.arg)];
        break;
      case Op::LoadVar:
        stack[sp++] = values[slot_map[static_cast<std::size_t>(ins.arg)]];
        break;
      case Op::Add:
        stack[sp - 2] = value_add(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::Sub:
        stack[sp - 2] = value_sub(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::Mul:
        stack[sp - 2] = value_mul(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::TrueDiv:
        stack[sp - 2] = value_truediv(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::FloorDiv:
        stack[sp - 2] = value_floordiv(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::Mod:
        stack[sp - 2] = value_mod(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::Pow:
        stack[sp - 2] = value_pow(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::Neg:
        stack[sp - 1] = value_neg(stack[sp - 1]);
        break;
      case Op::Not:
        stack[sp - 1] = Value(!stack[sp - 1].truthy());
        break;
      case Op::ToBool:
        stack[sp - 1] = Value(stack[sp - 1].truthy());
        break;
      case Op::CmpLt:
        stack[sp - 2] = Value(value_compare(CompareOp::Lt, stack[sp - 2], stack[sp - 1]));
        --sp;
        break;
      case Op::CmpLe:
        stack[sp - 2] = Value(value_compare(CompareOp::Le, stack[sp - 2], stack[sp - 1]));
        --sp;
        break;
      case Op::CmpGt:
        stack[sp - 2] = Value(value_compare(CompareOp::Gt, stack[sp - 2], stack[sp - 1]));
        --sp;
        break;
      case Op::CmpGe:
        stack[sp - 2] = Value(value_compare(CompareOp::Ge, stack[sp - 2], stack[sp - 1]));
        --sp;
        break;
      case Op::CmpEq:
        stack[sp - 2] = Value(stack[sp - 2] == stack[sp - 1]);
        --sp;
        break;
      case Op::CmpNe:
        stack[sp - 2] = Value(stack[sp - 2] != stack[sp - 1]);
        --sp;
        break;
      case Op::InConst:
      case Op::NotInConst: {
        const auto& tuple = tuple_consts_[static_cast<std::size_t>(ins.arg)];
        bool found = false;
        for (const Value& v : tuple) {
          if (stack[sp - 1] == v) {
            found = true;
            break;
          }
        }
        stack[sp - 1] = Value(ins.op == Op::InConst ? found : !found);
        break;
      }
      case Op::Dup:
        stack[sp] = stack[sp - 1];
        ++sp;
        break;
      case Op::Rot2:
        std::swap(stack[sp - 1], stack[sp - 2]);
        break;
      case Op::Rot3: {
        Value top = std::move(stack[sp - 1]);
        stack[sp - 1] = std::move(stack[sp - 2]);
        stack[sp - 2] = std::move(stack[sp - 3]);
        stack[sp - 3] = std::move(top);
        break;
      }
      case Op::Pop:
        --sp;
        break;
      case Op::Jump:
        pc = static_cast<std::size_t>(ins.arg) - 1;  // -1: loop increments
        break;
      case Op::JumpIfFalseOrPop:
        if (!stack[sp - 1].truthy()) {
          pc = static_cast<std::size_t>(ins.arg) - 1;
        } else {
          --sp;
        }
        break;
      case Op::JumpIfTrueOrPop:
        if (stack[sp - 1].truthy()) {
          pc = static_cast<std::size_t>(ins.arg) - 1;
        } else {
          --sp;
        }
        break;
      case Op::PopJumpIfFalse:
        --sp;
        if (!stack[sp].truthy()) pc = static_cast<std::size_t>(ins.arg) - 1;
        break;
      case Op::CallMin:
      case Op::CallMax: {
        const std::size_t argc = static_cast<std::size_t>(ins.arg);
        Value best = stack[sp - argc];
        for (std::size_t i = 1; i < argc; ++i) {
          const Value& v = stack[sp - argc + i];
          int c;
          try {
            c = v.compare(best);
          } catch (const csp::ValueError& e) {
            throw EvalError(e.what());
          }
          if (ins.op == Op::CallMin ? c < 0 : c > 0) best = v;
        }
        sp -= argc;
        stack[sp++] = std::move(best);
        break;
      }
      case Op::CallAbs: {
        Value& v = stack[sp - 1];
        if (!v.is_numeric()) throw EvalError("abs() of non-number");
        if (!v.is_real()) {
          const std::int64_t i = v.as_int();
          if (i == std::numeric_limits<std::int64_t>::min()) {
            v = Value(-static_cast<double>(i));  // 2^63: promote like overflow
          } else {
            v = Value(i < 0 ? -i : i);
          }
        } else {
          v = Value(std::fabs(v.as_real()));
        }
        break;
      }
      case Op::CallPow:
        stack[sp - 2] = value_pow(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::CallGcd:
        stack[sp - 2] = value_gcd(stack[sp - 2], stack[sp - 1]);
        --sp;
        break;
      case Op::CallInt: {
        Value& v = stack[sp - 1];
        if (!v.is_numeric()) throw EvalError("int() of non-number");
        if (v.is_real()) v = Value(static_cast<std::int64_t>(std::trunc(v.as_real())));
        else v = Value(v.as_int());
        break;
      }
      case Op::CallFloat:
        stack[sp - 1] = Value(stack[sp - 1].as_real());
        break;
      case Op::Return:
        return std::move(stack[sp - 1]);
    }
  }
  throw EvalError("program fell off the end without Return");
}

bool Program::run_bool(const Value* values, const std::uint32_t* slot_map) const {
  return run(values, slot_map).truthy();
}

std::string Program::disassemble() const {
  static const char* kNames[] = {
      "PushConst", "LoadVar", "Add", "Sub", "Mul", "TrueDiv", "FloorDiv",
      "Mod", "Pow", "Neg", "Not", "ToBool", "CmpLt", "CmpLe", "CmpGt",
      "CmpGe", "CmpEq", "CmpNe", "InConst", "NotInConst", "Dup", "Rot2",
      "Rot3", "Pop", "Jump", "JumpIfFalseOrPop", "JumpIfTrueOrPop",
      "PopJumpIfFalse", "CallMin", "CallMax", "CallAbs", "CallPow", "CallGcd",
      "CallInt", "CallFloat", "Return"};
  std::ostringstream ss;
  for (std::size_t pc = 0; pc < code_.size(); ++pc) {
    const Instr& ins = code_[pc];
    ss << pc << ": " << kNames[static_cast<std::size_t>(ins.op)];
    switch (ins.op) {
      case Op::PushConst:
        ss << " " << consts_[static_cast<std::size_t>(ins.arg)].to_string();
        break;
      case Op::LoadVar:
        ss << " " << var_names_[static_cast<std::size_t>(ins.arg)];
        break;
      case Op::Jump:
      case Op::JumpIfFalseOrPop:
      case Op::JumpIfTrueOrPop:
      case Op::PopJumpIfFalse:
        ss << " -> " << ins.arg;
        break;
      case Op::CallMin:
      case Op::CallMax:
        ss << " argc=" << ins.arg;
        break;
      case Op::InConst:
      case Op::NotInConst: {
        ss << " (";
        const auto& t = tuple_consts_[static_cast<std::size_t>(ins.arg)];
        for (std::size_t i = 0; i < t.size(); ++i) {
          if (i) ss << ", ";
          ss << t[i].to_string();
        }
        ss << ")";
        break;
      }
      default:
        break;
    }
    ss << "\n";
  }
  return ss.str();
}

}  // namespace tunespace::expr
