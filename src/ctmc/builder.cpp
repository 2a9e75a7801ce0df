#include "ctmc/builder.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rascal::ctmc {

StateId CtmcBuilder::state(std::string name, double reward) {
  states_.push_back({std::move(name), reward});
  return states_.size() - 1;
}

CtmcBuilder& CtmcBuilder::rate(StateId from, StateId to, double value) {
  if (value == 0.0) return *this;
  transitions_.push_back({from, to, value});
  return *this;
}

CtmcBuilder& CtmcBuilder::rate(const std::string& from, const std::string& to,
                               double value) {
  return rate(id_of(from), id_of(to), value);
}

StateId CtmcBuilder::id_of(const std::string& name) const {
  for (StateId i = 0; i < states_.size(); ++i) {
    if (states_[i].name == name) return i;
  }
  throw std::invalid_argument("CtmcBuilder: no state named '" + name + "'");
}

Ctmc CtmcBuilder::build() const { return Ctmc(states_, transitions_); }

StateId SymbolicCtmc::state(std::string name, double reward) {
  edited();
  states_.push_back({std::move(name), reward});
  reward_expressions_.emplace_back();
  return states_.size() - 1;
}

StateId SymbolicCtmc::state(std::string name, const expr::Expression& reward) {
  if (reward.variables().empty()) {
    return state(std::move(name), reward.evaluate({}));
  }
  const StateId id =
      state(std::move(name), std::numeric_limits<double>::quiet_NaN());
  reward_expressions_.back() = reward;
  return id;
}

SymbolicCtmc& SymbolicCtmc::define(std::string name, expr::Expression value) {
  for (const Definition& d : definitions_) {
    if (d.name == name) {
      throw std::invalid_argument("SymbolicCtmc: duplicate definition of '" +
                                  name + "'");
    }
    if (d.value.variables().count(name) != 0) {
      throw std::invalid_argument("SymbolicCtmc: definition of '" + name +
                                  "' comes after its use in '" + d.name +
                                  "'");
    }
  }
  if (value.variables().count(name) != 0) {
    throw std::invalid_argument("SymbolicCtmc: definition of '" + name +
                                "' refers to itself");
  }
  edited();
  definitions_.push_back({std::move(name), std::move(value)});
  return *this;
}

SymbolicCtmc& SymbolicCtmc::rate(const std::string& from,
                                 const std::string& to,
                                 const std::string& expression) {
  return rate(from, to, expr::Expression::parse(expression));
}

SymbolicCtmc& SymbolicCtmc::rate(const std::string& from,
                                 const std::string& to,
                                 expr::Expression expression) {
  const StateId f = id_of(from);
  const StateId t = id_of(to);
  edited();
  transitions_.push_back({f, t, std::move(expression)});
  return *this;
}

StateId SymbolicCtmc::id_of(const std::string& name) const {
  for (StateId i = 0; i < states_.size(); ++i) {
    if (states_[i].name == name) return i;
  }
  throw std::invalid_argument("SymbolicCtmc: no state named '" + name + "'");
}

std::set<std::string> SymbolicCtmc::parameters() const {
  std::set<std::string> out;
  for (const SymbolicTransition& t : transitions_) {
    const auto vars = t.rate.variables();
    out.insert(vars.begin(), vars.end());
  }
  return out;
}

const SymbolicCtmc::Compilation& SymbolicCtmc::compilation() const {
  Compilation& c = *compilation_;
  std::call_once(c.once, [&] {
    c.model = std::make_unique<const CompiledCtmc>(*this, c.slots);
  });
  return c;
}

const CompiledCtmc& SymbolicCtmc::compiled() const {
  return *compilation().model;
}

const expr::SlotTable& SymbolicCtmc::slots() const {
  return compilation().slots;
}

bool SymbolicCtmc::reaches(const std::string& name) const {
  const Compilation& c = compilation();
  const auto slot = c.slots.find(name);
  return slot && c.model->reaches(*slot);
}

Ctmc SymbolicCtmc::bind(const expr::ParameterSet& params) const {
  const Compilation& c = compilation();
  expr::SlotValues values(c.slots.size());
  c.slots.resolve(params, values.values(), values.bound());
  return c.model->bind(values.values(), values.bound(), c.slots);
}

expr::ParameterSet SymbolicCtmc::with_definitions(
    const expr::ParameterSet& params) const {
  expr::ParameterSet out = params;
  for (const Definition& d : definitions_) {
    if (!out.contains(d.name)) out.set(d.name, d.value.evaluate(out));
  }
  return out;
}

}  // namespace rascal::ctmc
