// Parsed rate expression with value semantics.
//
//   auto e = Expression::parse("2*La_hadb*(1-FIR)");
//   double rate = e.evaluate(params);
//
// Copies share the immutable AST and its compiled program, so
// Expressions are cheap to store in model transition tables.
// Evaluation runs the compiled postfix program (program.h); models
// compile all their expressions into one shared program instead
// (compile_into).
#pragma once

#include <memory>
#include <set>
#include <string>

#include "expr/ast.h"
#include "expr/parameter_set.h"
#include "expr/program.h"

namespace rascal::expr {

class Expression {
 public:
  /// Constant expression (value literal).
  explicit Expression(double constant);

  /// Parses `source`; throws ParseError on malformed input and
  /// std::invalid_argument for unknown functions / wrong arity.
  [[nodiscard]] static Expression parse(const std::string& source);

  /// Evaluates against parameter bindings; throws
  /// UnknownParameterError for the first unbound variable reached.
  [[nodiscard]] double evaluate(const ParameterSet& params) const;

  /// Compiles this expression into `program` as a new entry whose
  /// variables resolve through `slots`; returns the entry index.
  std::uint32_t compile_into(Program& program, SlotTable& slots) const {
    return program.add(root_, slots);
  }

  /// All variable names referenced by the expression.
  [[nodiscard]] std::set<std::string> variables() const;

  /// Symbolic partial derivative d(this)/d(variable), lightly
  /// simplified.  Throws std::domain_error when the expression uses
  /// abs/min/max of the variable (not differentiable).
  [[nodiscard]] Expression derivative(const std::string& variable) const;

  /// Canonical (fully parenthesized) rendering; parse(to_string()) is
  /// semantically identical to the original.
  [[nodiscard]] std::string to_string() const;

  /// Original source text ("" for programmatic constants).
  [[nodiscard]] const std::string& source() const noexcept { return source_; }

 private:
  Expression(NodePtr root, std::string source);

  // The expression compiled on its own: one entry over slots named by
  // the variables in first-use order.
  struct Compiled {
    SlotTable slots;
    Program program;
  };

  NodePtr root_;
  std::string source_;
  std::shared_ptr<const Compiled> compiled_;
};

}  // namespace rascal::expr
