// Compiled symbolic chains: one flat program per model, bound from a
// dense parameter-slot vector.
//
// A CompiledCtmc is made once per SymbolicCtmc (and per submodel of a
// compiled hierarchy).  Its derived-parameter definitions, rates and
// rewards become entries of one expr::Program over slots named by an
// expr::SlotTable, so a bind is: run the definitions, run the rates
// into a per-transition value array, and assemble the chain from the
// plan cached for the resulting nonzero pattern.  The plan stores the
// merged transition order that Ctmc's constructor would produce (the
// order std::sort gives the pattern's transitions, which fixes the
// order parallel rates are summed in), the row index, and the
// pattern's structural memo (PatternMemo in ctmc.h), so bound chains
// are bit-identical to Ctmc(states, transitions) built from the same
// rates while skipping the name checks, the state-table copy and the
// sort.
//
// Compiled models are immutable once built except for their plan
// cache and pattern memos, which are thread-safe: many workers bind
// one compiled model concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ctmc/ctmc.h"
#include "expr/parameter_set.h"
#include "expr/program.h"

namespace rascal::ctmc {

class SymbolicCtmc;

class CompiledCtmc {
 public:
  /// Compiles `model`; every name it reads resolves through `slots`,
  /// which may be shared with other compiled chains (a hierarchy's
  /// submodels).  Throws what Ctmc's constructor would throw for an
  /// invalid state table.
  CompiledCtmc(const SymbolicCtmc& model, expr::SlotTable& slots);

  CompiledCtmc(const CompiledCtmc&) = delete;
  CompiledCtmc& operator=(const CompiledCtmc&) = delete;

  /// Binds against slot values.  `values` and `bound` cover every slot
  /// of `slots`; a slot whose `bound` flag is 0 has no value.  Each
  /// definition whose slot is unbound is evaluated (declaration order)
  /// and written back as bound; a bound one is an override and is not
  /// evaluated.  Errors match SymbolicCtmc::bind.
  [[nodiscard]] Ctmc bind(double* values, std::uint8_t* bound,
                          const expr::SlotTable& slots) const;

  /// True when a rate or reward depends on `slot`, directly or
  /// through definitions.
  [[nodiscard]] bool reaches(std::uint32_t slot) const noexcept {
    return slot < reaches_.size() && reaches_[slot] != 0;
  }

 private:
  struct Definition {
    std::uint32_t slot = 0;
    std::uint32_t entry = 0;
  };
  struct Rate {
    StateId from = 0;
    StateId to = 0;
    std::uint32_t entry = 0;
  };
  struct Plan;

  // Transitions beyond this many spill the pattern words and the rate
  // values to the heap during bind.
  static constexpr std::size_t kInlineTransitions = 256;
  using Pattern = std::vector<std::uint64_t>;

  [[nodiscard]] std::shared_ptr<const Plan> make_plan(
      const std::uint64_t* words) const;
  [[nodiscard]] std::shared_ptr<const Plan> plan_for(
      const std::uint64_t* words) const;

  std::uint64_t id_ = 0;  // process-unique: part of every bind key
  expr::Program program_;
  std::vector<Definition> definitions_;
  std::vector<Rate> rates_;
  std::vector<std::string> rate_sources_;
  // (state, entry) for every reward that depends on parameters.
  std::vector<std::pair<StateId, std::uint32_t>> rewards_;
  std::shared_ptr<const std::vector<State>> states_;
  // Slots read by any entry other than the chain's own definitions: a
  // bind with all of them bound evaluates without per-load checks.
  std::vector<std::uint32_t> inputs_;
  // Slots rates and rewards read directly (after definitions run):
  // their bits decide the bound chain, so they make its bind key.
  std::vector<std::uint32_t> key_slots_;
  std::vector<std::uint8_t> reaches_;
  std::size_t pattern_words_ = 0;
  bool has_self_loop_ = false;
  std::shared_ptr<const Plan> full_plan_;  // every rate nonzero

  // Patterns seen so far (a handful in practice: the full one plus
  // those with a rate formula evaluating to exactly zero).  Bounded;
  // beyond the cap a plan is rebuilt on every bind.
  static constexpr std::size_t kMaxPlans = 64;
  mutable std::mutex plans_mutex_;
  mutable std::map<Pattern, std::shared_ptr<const Plan>> plans_;
};

}  // namespace rascal::ctmc
