#include "io/model_file.h"

#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "expr/expression.h"
#include "expr/lexer.h"

namespace rascal::io {

namespace {

// Cursor over one comment-stripped line that remembers the 1-based
// column of every token it hands out, so errors and the SourceMap can
// point at the offending word rather than just the line.
class LineScanner {
 public:
  explicit LineScanner(const std::string& raw) : line_(raw) {
    const auto hash = line_.find('#');
    if (hash != std::string::npos) line_.erase(hash);
    const auto last = line_.find_last_not_of(" \t\r");
    line_.erase(last == std::string::npos ? 0 : last + 1);
    skip_spaces();
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= line_.size(); }

  /// Column the next token would start at (1-based).
  [[nodiscard]] std::size_t column() const noexcept { return pos_ + 1; }

  /// Next whitespace-delimited word ("" at end of line).
  std::pair<std::string, std::size_t> word() {
    const std::size_t column = pos_ + 1;
    const auto end = line_.find_first_of(" \t", pos_);
    std::string text =
        line_.substr(pos_, end == std::string::npos ? end : end - pos_);
    pos_ = end == std::string::npos ? line_.size() : end;
    skip_spaces();
    return {std::move(text), column};
  }

  /// Rest of the line verbatim (expressions keep internal spaces).
  std::pair<std::string, std::size_t> rest() {
    const std::size_t column = pos_ + 1;
    std::string text = line_.substr(pos_);
    pos_ = line_.size();
    return {std::move(text), column};
  }

 private:
  void skip_spaces() {
    pos_ = line_.find_first_not_of(" \t", pos_);
    if (pos_ == std::string::npos) pos_ = line_.size();
  }

  std::string line_;
  std::size_t pos_ = 0;
};

}  // namespace

ctmc::Ctmc ModelFile::bind(const expr::ParameterSet& overrides) const {
  const expr::SlotTable& slots = model.slots();
  expr::SlotValues values(slots.size());
  slots.resolve(parameters, values.values(), values.bound());
  slots.resolve(overrides, values.values(), values.bound());
  return model.compiled().bind(values.values(), values.bound(), slots);
}

expr::ParameterSet ModelFile::effective_parameters(
    const expr::ParameterSet& overrides) const {
  return model.with_definitions(parameters.with(overrides));
}

void ModelFile::check_overrides(const expr::ParameterSet& overrides) const {
  for (const auto& [key, value] : overrides) {
    (void)value;
    if (model.reaches(key)) continue;
    bool known = parameters.contains(key);
    for (const ctmc::SymbolicCtmc::Definition& d : model.definitions()) {
      known = known || d.name == key;
    }
    throw OverrideError(
        known ? "override '" + key + "' reaches no rate or reward of the model"
              : "override '" + key + "' names no parameter of the model");
  }
}

ModelFile parse_model(std::istream& in) {
  ModelFile out;
  std::set<std::string> state_names;
  std::set<std::string> param_names;
  // Every parameter declared so far at its default value: a value or
  // reward must evaluate against these, or the file is malformed.
  expr::ParameterSet defaults;
  std::string raw;
  std::size_t line_number = 0;
  bool has_rate = false;

  while (std::getline(in, raw)) {
    ++line_number;
    LineScanner scan(raw);
    if (scan.at_end()) continue;

    const auto [directive, directive_col] = scan.word();
    if (directive == "model") {
      out.name = scan.rest().first;
    } else if (directive == "param") {
      const auto [name, name_col] = scan.word();
      const auto [value_text, value_col] = scan.rest();
      if (name.empty() || value_text.empty()) {
        throw ModelFileError("expected 'param NAME VALUE'", line_number,
                             directive_col);
      }
      if (!param_names.insert(name).second) {
        throw ModelFileError("duplicate parameter '" + name + "'",
                             line_number, name_col);
      }
      try {
        // Values may reference earlier parameters ("La_as/La").
        const expr::Expression value = expr::Expression::parse(value_text);
        const double default_value = value.evaluate(defaults);
        defaults.set(name, default_value);
        if (value.variables().empty()) {
          out.parameters.set(name, default_value);
        } else {
          out.model.define(name, value);
        }
      } catch (const std::exception& e) {
        throw ModelFileError(
            "bad value for parameter '" + name + "': " + e.what(),
            line_number, value_col);
      }
      out.source.parameters[name] = {line_number, name_col};
    } else if (directive == "state") {
      const auto [name, name_col] = scan.word();
      const auto [reward_kw, reward_kw_col] = scan.word();
      const auto [reward_text, reward_col] = scan.rest();
      if (name.empty() || reward_kw != "reward" || reward_text.empty()) {
        throw ModelFileError("expected 'state NAME reward VALUE'",
                             line_number,
                             reward_kw == "reward" || reward_kw.empty()
                                 ? directive_col
                                 : reward_kw_col);
      }
      if (!state_names.insert(name).second) {
        throw ModelFileError("duplicate state '" + name + "'", line_number,
                             name_col);
      }
      try {
        const expr::Expression reward = expr::Expression::parse(reward_text);
        (void)reward.evaluate(defaults);
        (void)out.model.state(name, reward);
      } catch (const std::exception& e) {
        throw ModelFileError(
            "bad reward for state '" + name + "': " + e.what(), line_number,
            reward_col);
      }
      out.source.states[name] = {line_number, name_col};
    } else if (directive == "rate") {
      const auto [from, from_col] = scan.word();
      const auto [to, to_col] = scan.word();
      const auto [expression, expr_col] = scan.rest();
      if (from.empty() || to.empty() || expression.empty()) {
        throw ModelFileError("expected 'rate FROM TO EXPRESSION'",
                             line_number, directive_col);
      }
      if (!state_names.count(from)) {
        throw ModelFileError("unknown state '" + from + "'", line_number,
                             from_col);
      }
      if (!state_names.count(to)) {
        throw ModelFileError("unknown state '" + to + "'", line_number,
                             to_col);
      }
      try {
        out.model.rate(from, to, expression);
      } catch (const std::exception& e) {
        throw ModelFileError(std::string("bad rate expression: ") + e.what(),
                             line_number, expr_col);
      }
      out.source.transitions.push_back({line_number, from_col});
      has_rate = true;
    } else {
      throw ModelFileError("unknown directive '" + directive + "'",
                           line_number, directive_col);
    }
  }

  if (state_names.empty()) {
    throw ModelFileError("model declares no states", line_number);
  }
  if (!has_rate) {
    throw ModelFileError("model declares no transitions", line_number);
  }
  // Compile now, so loading pays for it once and binds never do.
  (void)out.model.compiled();
  return out;
}

ModelFile parse_model_text(const std::string& text) {
  std::istringstream in(text);
  return parse_model(in);
}

lint::LintReport lint_model_file(const ModelFile& file,
                                 const expr::ParameterSet& overrides,
                                 const lint::LintOptions& options) {
  lint::LintOptions file_options = options;
  file_options.warn_unused_parameters = true;
  const lint::LintReport report =
      lint::lint_model(file.model, file.parameters.with(overrides),
                       file_options, &file.source);
  // An override that reaches nothing is an error (R026) rather than
  // the unused-parameter warning its name would otherwise draw.
  lint::LintReport out;
  for (const lint::Diagnostic& d : report) {
    if (d.code == lint::codes::kUnusedParameter &&
        overrides.contains(d.location.parameter)) {
      continue;
    }
    out.add(d);
  }
  for (const auto& [name, value] : overrides) {
    (void)value;
    try {
      file.check_overrides(expr::ParameterSet{{name, value}});
    } catch (const OverrideError& e) {
      lint::Diagnostic d;
      d.code = lint::codes::kUnreachedOverride;
      d.severity = lint::Severity::kError;
      d.message = e.what();
      d.location.file = file.source.file;
      d.location.parameter = name;
      const auto pos = file.source.parameters.find(name);
      if (pos != file.source.parameters.end()) {
        d.location.line = pos->second.line;
        d.location.column = pos->second.column;
      }
      d.fix_hint =
          "check the spelling, or override a parameter a rate or reward "
          "depends on";
      out.add(std::move(d));
    }
  }
  return out;
}

ModelFile load_model(const std::string& path, LintOnLoad lint) {
  std::ifstream in(path);
  if (!in) {
    throw ModelFileError("cannot open model file: " + path, 0);
  }
  ModelFile file = parse_model(in);
  file.source.file = path;
  if (lint == LintOnLoad::kOn) {
    lint::LintReport report = lint_model_file(file);
    if (report.has_errors()) {
      throw lint::LintError(std::move(report));
    }
  }
  return file;
}

}  // namespace rascal::io
