#include "expr/program.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "expr/ast.h"
#include "expr/parameter_set.h"

namespace rascal::expr {

std::uint32_t SlotTable::slot(const std::string& name) {
  const auto [it, inserted] =
      index_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::optional<std::uint32_t> SlotTable::find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void SlotTable::resolve(const ParameterSet& params, double* values,
                        std::uint8_t* bound) const {
  // Both sides are sorted by name: one merge pass.
  auto slot = index_.begin();
  auto param = params.begin();
  while (slot != index_.end() && param != params.end()) {
    const int order = slot->first.compare(param->first);
    if (order < 0) {
      ++slot;
    } else if (order > 0) {
      ++param;
    } else {
      values[slot->second] = param->second;
      bound[slot->second] = 1;
      ++slot;
      ++param;
    }
  }
}

SlotValues::SlotValues(std::size_t slots) {
  if (slots > kInline) {
    spill_values_.assign(slots, 0.0);
    spill_bound_.assign(slots, 0);
    values_ = spill_values_.data();
    bound_ = spill_bound_.data();
  } else {
    std::memset(inline_values_, 0, sizeof inline_values_);
    std::memset(inline_bound_, 0, sizeof inline_bound_);
  }
}

// Appends one entry's postfix code, tracking the stack depth.
class ProgramEmitter final : public Emitter {
 public:
  ProgramEmitter(Program& program, SlotTable& slots)
      : program_(program), slots_(slots) {}

  void constant(double value) override {
    program_.constants_.push_back(value);
    push(OpCode::kConst,
         static_cast<std::uint32_t>(program_.constants_.size() - 1), +1);
  }
  void load(const std::string& variable) override {
    const std::uint32_t slot = slots_.slot(variable);
    reads_.push_back(slot);
    push(OpCode::kLoad, slot, +1);
  }
  void op(OpCode code) override {
    const bool unary = code == OpCode::kNeg || code == OpCode::kExp ||
                       code == OpCode::kLog || code == OpCode::kSqrt ||
                       code == OpCode::kAbs;
    push(code, 0, unary ? 0 : -1);
  }
  void divide(const Node& quotient) override {
    program_.quotients_.push_back(&quotient);
    push(OpCode::kDiv,
         static_cast<std::uint32_t>(program_.quotients_.size() - 1), -1);
  }

  [[nodiscard]] std::uint32_t depth() const noexcept { return max_depth_; }
  [[nodiscard]] std::vector<std::uint32_t>& reads() noexcept { return reads_; }

 private:
  void push(OpCode code, std::uint32_t arg, int delta) {
    program_.code_.push_back({code, arg});
    depth_ = static_cast<std::uint32_t>(static_cast<int>(depth_) + delta);
    max_depth_ = std::max(max_depth_, depth_);
  }

  Program& program_;
  SlotTable& slots_;
  std::uint32_t depth_ = 0;
  std::uint32_t max_depth_ = 0;
  std::vector<std::uint32_t> reads_;
};

std::uint32_t Program::add(const std::shared_ptr<const Node>& root,
                           SlotTable& slots) {
  roots_.push_back(root);
  Entry entry;
  entry.begin = static_cast<std::uint32_t>(code_.size());
  ProgramEmitter emitter(*this, slots);
  root->emit(emitter);
  entry.end = static_cast<std::uint32_t>(code_.size());
  entry.depth = emitter.depth();
  std::vector<std::uint32_t>& reads = emitter.reads();
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  entry.reads_begin = static_cast<std::uint32_t>(reads_.size());
  reads_.insert(reads_.end(), reads.begin(), reads.end());
  entry.reads_end = static_cast<std::uint32_t>(reads_.size());
  entries_.push_back(entry);
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

std::span<const std::uint32_t> Program::reads(std::uint32_t k) const {
  const Entry& e = entries_.at(k);
  return {reads_.data() + e.reads_begin, e.reads_end - e.reads_begin};
}

double Program::run(std::uint32_t k, const double* slots) const {
  return execute<false>(entries_[k], slots, nullptr, nullptr);
}

double Program::run_checked(std::uint32_t k, const double* slots,
                            const std::uint8_t* bound,
                            const SlotTable& names) const {
  return execute<true>(entries_[k], slots, bound, &names);
}

template <bool kChecked>
double Program::execute(const Entry& entry, const double* slots,
                        const std::uint8_t* bound,
                        const SlotTable* names) const {
  // Rate formulas need a handful of stack cells; only pathological
  // nesting (bounded by the parser's depth guard) spills to the heap.
  constexpr std::uint32_t kInline = 32;
  double inline_stack[kInline];
  inline_stack[0] = 0.0;  // every parsed expression pushes at least once
  std::vector<double> spill;
  double* stack = inline_stack;
  if (entry.depth > kInline) {
    spill.resize(entry.depth);
    stack = spill.data();
  }
  std::size_t top = 0;  // cells in use; stack[top - 1] is the top
  for (std::uint32_t pc = entry.begin; pc < entry.end; ++pc) {
    const Instruction in = code_[pc];
    switch (in.op) {
      case OpCode::kConst:
        stack[top++] = constants_[in.arg];
        break;
      case OpCode::kLoad:
        if constexpr (kChecked) {
          if (bound[in.arg] == 0) {
            throw UnknownParameterError(names->name(in.arg));
          }
        }
        stack[top++] = slots[in.arg];
        break;
      case OpCode::kNeg:
        stack[top - 1] = -stack[top - 1];
        break;
      case OpCode::kAdd:
        --top;
        stack[top - 1] = stack[top - 1] + stack[top];
        break;
      case OpCode::kSub:
        --top;
        stack[top - 1] = stack[top - 1] - stack[top];
        break;
      case OpCode::kMul:
        --top;
        stack[top - 1] = stack[top - 1] * stack[top];
        break;
      case OpCode::kDiv:
        --top;
        if (stack[top] == 0.0) {
          throw std::domain_error("expression: division by zero in " +
                                  quotients_[in.arg]->to_string());
        }
        stack[top - 1] = stack[top - 1] / stack[top];
        break;
      case OpCode::kPow:
        --top;
        stack[top - 1] = std::pow(stack[top - 1], stack[top]);
        break;
      case OpCode::kExp:
        stack[top - 1] = std::exp(stack[top - 1]);
        break;
      case OpCode::kLog:
        if (!(stack[top - 1] > 0.0)) {
          throw std::domain_error("expression: log of non-positive value");
        }
        stack[top - 1] = std::log(stack[top - 1]);
        break;
      case OpCode::kSqrt:
        if (stack[top - 1] < 0.0) {
          throw std::domain_error("expression: sqrt of negative value");
        }
        stack[top - 1] = std::sqrt(stack[top - 1]);
        break;
      case OpCode::kAbs:
        stack[top - 1] = std::abs(stack[top - 1]);
        break;
      case OpCode::kMin:
        --top;
        stack[top - 1] = std::min(stack[top - 1], stack[top]);
        break;
      case OpCode::kMax:
        --top;
        stack[top - 1] = std::max(stack[top - 1], stack[top]);
        break;
    }
  }
  return stack[0];
}

}  // namespace rascal::expr
