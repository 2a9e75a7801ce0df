#include "core/hierarchy.h"

#include <set>
#include <stdexcept>

#include "ctmc/compiled.h"

namespace rascal::core {

struct HierarchicalModel::Compiled {
  expr::SlotTable slots;
  std::vector<std::unique_ptr<const ctmc::CompiledCtmc>> submodels;
  std::vector<std::vector<std::uint32_t>> export_slots;  // per submodel
  std::unique_ptr<const ctmc::CompiledCtmc> root;
  std::vector<std::pair<std::uint32_t, double>> fixed;
};

const HierarchicalModel::Compiled& HierarchicalModel::compiled() const {
  Compilation& c = *compilation_;
  std::call_once(c.once, [&] {
    auto out = std::make_unique<Compiled>();
    for (const Submodel& sub : submodels_) {
      out->submodels.push_back(
          std::make_unique<const ctmc::CompiledCtmc>(sub.model, out->slots));
      std::vector<std::uint32_t> exports;
      for (const Export& e : sub.exports) {
        exports.push_back(out->slots.slot(e.parameter_name));
      }
      out->export_slots.push_back(std::move(exports));
    }
    out->root = std::make_unique<const ctmc::CompiledCtmc>(root_, out->slots);
    for (const auto& [name, value] : fixed_) {
      out->fixed.emplace_back(out->slots.slot(name), value);
    }
    c.value = std::move(out);
  });
  return *c.value;
}

HierarchicalModel& HierarchicalModel::add_submodel(Submodel submodel) {
  std::set<std::string> export_names;
  for (const Submodel& existing : submodels_) {
    if (existing.name == submodel.name) {
      throw std::invalid_argument("HierarchicalModel: duplicate submodel '" +
                                  submodel.name + "'");
    }
    for (const Export& e : existing.exports) {
      export_names.insert(e.parameter_name);
    }
  }
  for (const Export& e : submodel.exports) {
    if (!export_names.insert(e.parameter_name).second) {
      throw std::invalid_argument(
          "HierarchicalModel: duplicate export parameter '" +
          e.parameter_name + "'");
    }
  }
  edited();
  submodels_.push_back(std::move(submodel));
  return *this;
}

HierarchicalModel& HierarchicalModel::set_root(ctmc::SymbolicCtmc root,
                                               double up_threshold) {
  edited();
  root_ = std::move(root);
  root_up_threshold_ = up_threshold;
  has_root_ = true;
  return *this;
}

HierarchicalModel& HierarchicalModel::fix(std::string name, double value) {
  edited();
  fixed_.emplace_back(std::move(name), value);
  return *this;
}

HierarchicalResult HierarchicalModel::solve(const expr::ParameterSet& inputs,
                                            ctmc::SteadyStateMethod method,
                                            ctmc::SolveCache* cache) const {
  if (!has_root_) {
    throw std::logic_error("HierarchicalModel::solve: no root model set");
  }
  const Compiled& model = compiled();
  expr::SlotValues slots(model.slots.size());
  double* values = slots.values();
  std::uint8_t* bound = slots.bound();
  model.slots.resolve(inputs, values, bound);
  for (const auto& [slot, value] : model.fixed) {
    values[slot] = value;
    bound[slot] = 1;
  }

  HierarchicalResult result;
  const auto solve_chain = [&](const ctmc::Ctmc& chain) {
    return cache != nullptr ? cache->steady_state(chain, method)
                            : ctmc::solve_steady_state(chain, method);
  };

  result.submodels.reserve(submodels_.size());
  for (std::size_t k = 0; k < submodels_.size(); ++k) {
    const Submodel& sub = submodels_[k];
    const ctmc::Ctmc chain = model.submodels[k]->bind(values, bound,
                                                      model.slots);
    ctmc::SteadyState steady = solve_chain(chain);
    SubmodelResult sr;
    sr.name = sub.name;
    sr.metrics = availability_metrics(chain, steady, sub.up_threshold);
    sr.equivalent = two_state_equivalent(chain, steady, sub.up_threshold);
    sr.steady = std::move(steady);

    for (std::size_t x = 0; x < sub.exports.size(); ++x) {
      const Export& e = sub.exports[x];
      double value = 0.0;
      switch (e.kind) {
        case ExportKind::kLambdaEq: value = sr.equivalent.lambda_eq; break;
        case ExportKind::kMuEq: value = sr.equivalent.mu_eq; break;
        case ExportKind::kAvailability:
          value = sr.metrics.availability;
          break;
        case ExportKind::kUnavailability:
          value = sr.metrics.unavailability;
          break;
        case ExportKind::kFailureFrequency:
          value = sr.metrics.failure_frequency;
          break;
      }
      const std::uint32_t slot = model.export_slots[k][x];
      values[slot] = value;
      bound[slot] = 1;
      result.exports.set(e.parameter_name, value);
    }
    result.submodels.push_back(std::move(sr));
  }

  const ctmc::Ctmc root_chain = model.root->bind(values, bound, model.slots);
  result.root_steady = solve_chain(root_chain);
  result.system = availability_metrics(root_chain, result.root_steady,
                                       root_up_threshold_);
  return result;
}

}  // namespace rascal::core
