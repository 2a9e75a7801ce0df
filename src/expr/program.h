// Compiled rate expressions: postfix code over a dense slot vector.
//
// A Program holds any number of compiled expressions ("entries") that
// read named parameters through one shared SlotTable.  Compiling maps
// every variable to a slot index once, so evaluation is a tight loop
// over an array of doubles instead of a virtual AST walk with a
// std::map lookup per variable.  It is the only evaluator:
// Expression::evaluate runs a one-entry Program, and a compiled model
// (ctmc/compiled.h) runs every definition, rate and reward of a chain
// from one.
//
// The code keeps the AST's operation order exactly — operands left to
// right, the same IEEE operations and libm calls — so results are
// bit-identical to evaluating the tree, and so are the error texts:
// division by zero names the parenthesized sub-expression, log/sqrt
// report their domain, and loading an unbound slot raises
// UnknownParameterError for the first unbound variable in evaluation
// order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rascal::expr {

class ParameterSet;

/// Names of the parameter slots a Program reads, in slot order.
class SlotTable {
 public:
  /// Slot of `name`, appended when new.
  std::uint32_t slot(const std::string& name);
  [[nodiscard]] std::optional<std::uint32_t> find(
      const std::string& name) const;
  [[nodiscard]] const std::string& name(std::uint32_t slot) const {
    return names_.at(slot);
  }
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

  /// Copies the value of every slot `params` binds into `values` and
  /// flags it in `bound` (1 = bound); other slots are left as they
  /// are.  Both arrays cover size() slots.
  void resolve(const ParameterSet& params, double* values,
               std::uint8_t* bound) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> index_;
};

/// Per-evaluation slot storage: values plus bound flags (all unbound
/// to start), inline for the small tables rate models use.
class SlotValues {
 public:
  explicit SlotValues(std::size_t slots);
  SlotValues(const SlotValues&) = delete;
  SlotValues& operator=(const SlotValues&) = delete;

  [[nodiscard]] double* values() noexcept { return values_; }
  [[nodiscard]] std::uint8_t* bound() noexcept { return bound_; }

 private:
  static constexpr std::size_t kInline = 64;
  double inline_values_[kInline];
  std::uint8_t inline_bound_[kInline];
  std::vector<double> spill_values_;
  std::vector<std::uint8_t> spill_bound_;
  double* values_ = inline_values_;
  std::uint8_t* bound_ = inline_bound_;
};

enum class OpCode : std::uint8_t {
  kConst,  // push constant[arg]
  kLoad,   // push slot[arg]
  kNeg,
  kAdd,
  kSub,
  kMul,
  kDiv,  // arg: index of the quotient node, rendered for the error
  kPow,  // '^' and pow()
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kMin,
  kMax,
};

struct Instruction {
  OpCode op = OpCode::kConst;
  std::uint32_t arg = 0;
};

/// Code emitter handed to the AST nodes (ast.h) while compiling.
class Node;

class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void constant(double value) = 0;
  virtual void load(const std::string& variable) = 0;
  virtual void op(OpCode code) = 0;
  /// Division; the division-by-zero error quotes `quotient` rendered
  /// canonically (rendered only when the error fires).
  virtual void divide(const Node& quotient) = 0;
};

class Program {
 public:
  /// Compiles the tree rooted at `root` into a new entry, resolving
  /// its variables through `slots`; returns the entry index.  The
  /// program keeps the tree alive for its error messages.
  std::uint32_t add(const std::shared_ptr<const Node>& root,
                    SlotTable& slots);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Evaluates entry `k`; every slot it reads must hold a value.
  [[nodiscard]] double run(std::uint32_t k, const double* slots) const;

  /// As run(), but loading a slot whose `bound` flag is 0 raises
  /// UnknownParameterError naming it (from `names`) at that point of
  /// the evaluation, after any error an earlier operation raised.
  [[nodiscard]] double run_checked(std::uint32_t k, const double* slots,
                                   const std::uint8_t* bound,
                                   const SlotTable& names) const;

  /// Slots entry `k` reads, ascending and unique.
  [[nodiscard]] std::span<const std::uint32_t> reads(std::uint32_t k) const;

 private:
  struct Entry {
    std::uint32_t begin = 0;  // code range
    std::uint32_t end = 0;
    std::uint32_t depth = 0;  // maximum stack depth
    std::uint32_t reads_begin = 0;
    std::uint32_t reads_end = 0;
  };

  template <bool kChecked>
  double execute(const Entry& entry, const double* slots,
                 const std::uint8_t* bound, const SlotTable* names) const;

  friend class ProgramEmitter;

  std::vector<Instruction> code_;
  std::vector<double> constants_;
  std::vector<std::shared_ptr<const Node>> roots_;
  std::vector<const Node*> quotients_;  // nodes inside roots_
  std::vector<std::uint32_t> reads_;
  std::vector<Entry> entries_;
};

}  // namespace rascal::expr
