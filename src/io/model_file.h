// Text format for availability models, so the toolkit is usable from
// the command line (tools/rascal_cli) without writing C++.
//
// Line-based syntax ('#' starts a comment anywhere):
//
//   model  JSAS HADB node pair          # optional title
//   param  La_hadb  2/8760              # value may use earlier params
//   param  FIR      0.001
//   param  La       La_hadb+La_os       # derived parameter
//   state  Ok           reward 1
//   state  2_Down       reward 0
//   rate   Ok 2_Down    2*La_hadb*FIR   # rest of line = expression
//
// A parameter whose value reads no other parameter is a base
// parameter: its value is a default an override may replace.  One
// that reads earlier parameters is a derived parameter: it stays
// symbolic (SymbolicCtmc::define) and is evaluated at bind time,
// after overrides apply, so overriding La_hadb moves La as well.
// Overriding a derived parameter replaces its definition.  Rates and
// rewards stay symbolic too; everything compiles once, at load, into
// the model's slot program (ctmc/compiled.h).
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "ctmc/builder.h"
#include "expr/parameter_set.h"
#include "lint/lint.h"

namespace rascal::io {

/// Parse failure with 1-based line number and (when known) 1-based
/// column of the offending token; column 0 means "whole line".
/// Line 0 marks a file-level failure (e.g. the file cannot be
/// opened), where no position prefix makes sense.
class ModelFileError : public std::runtime_error {
 public:
  ModelFileError(const std::string& message, std::size_t line,
                 std::size_t column = 0)
      : std::runtime_error(
            line == 0
                ? message
                : "line " + std::to_string(line) +
                      (column > 0 ? ", column " + std::to_string(column) : "") +
                      ": " + message),
        line_(line),
        column_(column),
        message_(message) {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }
  /// The bare message, without the "line L, column C: " prefix that
  /// what() carries (diagnostics render the position separately).
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

 private:
  std::size_t line_;
  std::size_t column_;
  std::string message_;
};

/// An override that cannot change the model's answer: it names no
/// parameter of the model, or one no rate or reward depends on.
class OverrideError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct ModelFile {
  std::string name;
  // Defaults of the base parameters (derived ones live in `model`).
  expr::ParameterSet parameters;
  // States, rates, rewards and the derived-parameter definitions.
  ctmc::SymbolicCtmc model;
  // Where each param/state/rate was declared; lets the linter report
  // file:line:column locations.  `source.file` is filled by
  // load_model (streams have no path).
  lint::SourceMap source;

  /// Binds the model against the file's defaults overridden by
  /// `overrides`; derived parameters are evaluated after the
  /// overrides apply.  Overrides that reach nothing are ignored here;
  /// check_overrides refuses them.
  [[nodiscard]] ctmc::Ctmc bind(
      const expr::ParameterSet& overrides = {}) const;

  /// Defaults, overrides and every derived parameter, evaluated.
  [[nodiscard]] expr::ParameterSet effective_parameters(
      const expr::ParameterSet& overrides = {}) const;

  /// Throws OverrideError for the first override (in name order) that
  /// names no parameter of the model or that no rate or reward
  /// depends on, directly or through derived parameters.
  void check_overrides(const expr::ParameterSet& overrides) const;
};

/// Parses a model from a stream.  Throws ModelFileError on syntax
/// problems (unknown directive, bad state reference, duplicate
/// parameter, missing reward, unparsable expression).  Parse only —
/// no lint; use lint_model_file or load_model for analysis.
[[nodiscard]] ModelFile parse_model(std::istream& in);

/// Parses a model from a string.
[[nodiscard]] ModelFile parse_model_text(const std::string& text);

/// Runs the full static analysis (lint::lint_model) over a parsed
/// file, with diagnostics located at file:line:column via the file's
/// SourceMap.  Unused-parameter warnings (R021) are on: file-local
/// params have no other consumer.  `overrides` participate so linting
/// matches what bind() would solve; an override that reaches no rate
/// or reward is an R026 error.
[[nodiscard]] lint::LintReport lint_model_file(
    const ModelFile& file, const expr::ParameterSet& overrides = {},
    const lint::LintOptions& options = {});

/// Opt-out switch for lint-on-load.
enum class LintOnLoad { kOn, kOff };

/// Loads a model from a file path.  Throws std::runtime_error when
/// the file cannot be opened, ModelFileError on parse problems, and —
/// with lint on (the default) — lint::LintError when the model has
/// error-severity diagnostics.  Warnings do not throw; use
/// lint_model_file directly to see them.
[[nodiscard]] ModelFile load_model(const std::string& path,
                                   LintOnLoad lint = LintOnLoad::kOn);

}  // namespace rascal::io
