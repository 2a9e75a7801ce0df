#include "ctmc/compiled.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ctmc/builder.h"

namespace rascal::ctmc {

namespace {

std::atomic<std::uint64_t> g_next_model_id{1};

// splitmix64 finalizer: one well-mixed step per 64-bit word.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t bits_of(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

bool bit(const std::uint64_t* words, std::size_t k) noexcept {
  return ((words[k / 64] >> (k % 64)) & 1U) != 0;
}

// Ctmc's constructor order: by source, then target.  A plan sorts the
// pattern's transitions with this comparison (and the same element
// type), so std::sort performs the same comparisons and yields the
// same permutation of parallel transitions as the constructor does.
bool before(const Transition& a, const Transition& b) {
  return a.from != b.from ? a.from < b.from : a.to < b.to;
}

}  // namespace

// Everything a bind needs for one nonzero pattern.
struct CompiledCtmc::Plan {
  // Merged transitions in (from, to) order; `rate` is unused.
  std::vector<Transition> merged;
  // Transition indices in summation order: merged[i] sums the rates of
  // order[group[i] .. group[i + 1]).
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> group;
  std::vector<std::size_t> row_offsets;
  std::shared_ptr<PatternMemo> memo = std::make_shared<PatternMemo>();
};

CompiledCtmc::CompiledCtmc(const SymbolicCtmc& model, expr::SlotTable& slots)
    : id_(g_next_model_id.fetch_add(1, std::memory_order_relaxed)) {
  // The state table is checked once here, with the constructor's own
  // messages; parameter-dependent rewards are checked at bind.
  std::vector<State> states = model.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (model.reward_expressions()[i]) states[i].reward = 0.0;
  }
  (void)Ctmc(states, {});

  std::vector<std::uint32_t> definition_slots;
  for (const SymbolicCtmc::Definition& d : model.definitions()) {
    const std::uint32_t entry = d.value.compile_into(program_, slots);
    const std::uint32_t slot = slots.slot(d.name);
    definitions_.push_back({slot, entry});
    definition_slots.push_back(slot);
  }
  for (const SymbolicCtmc::SymbolicTransition& t : model.transitions()) {
    rates_.push_back({t.from, t.to, t.rate.compile_into(program_, slots)});
    rate_sources_.push_back(t.rate.source());
    has_self_loop_ = has_self_loop_ || t.from == t.to;
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (const auto& reward = model.reward_expressions()[i]) {
      rewards_.emplace_back(i, reward->compile_into(program_, slots));
      states[i].reward = model.states()[i].reward;
    }
  }
  states_ = std::make_shared<const std::vector<State>>(std::move(states));

  // Read sets.  Definitions come first in the program, so their
  // entries are 0 .. definitions_.size() - 1.
  std::vector<std::uint8_t> is_definition(slots.size(), 0);
  for (const std::uint32_t slot : definition_slots) is_definition[slot] = 1;
  std::vector<std::uint8_t> is_input(slots.size(), 0);
  std::vector<std::uint8_t> is_key(slots.size(), 0);
  reaches_.assign(slots.size(), 0);
  for (std::uint32_t k = 0; k < program_.size(); ++k) {
    const bool direct = k >= definitions_.size();
    for (const std::uint32_t slot : program_.reads(k)) {
      if (is_definition[slot] == 0) is_input[slot] = 1;
      if (direct) {
        is_key[slot] = 1;
        reaches_[slot] = 1;
      }
    }
  }
  // A definition reaches the chain when its own slot does; walking
  // them last to first settles the whole DAG in one pass.
  for (std::size_t d = definitions_.size(); d-- > 0;) {
    if (reaches_[definitions_[d].slot] == 0) continue;
    for (const std::uint32_t slot : program_.reads(definitions_[d].entry)) {
      reaches_[slot] = 1;
    }
  }
  for (std::uint32_t slot = 0; slot < slots.size(); ++slot) {
    if (is_input[slot] != 0) inputs_.push_back(slot);
    if (is_key[slot] != 0) key_slots_.push_back(slot);
  }

  pattern_words_ = (rates_.size() + 63) / 64;
  if (!has_self_loop_) {
    std::vector<std::uint64_t> all(pattern_words_, ~std::uint64_t{0});
    if (rates_.size() % 64 != 0) {
      all.back() = (std::uint64_t{1} << (rates_.size() % 64)) - 1;
    }
    full_plan_ = make_plan(all.data());
  }
}

std::shared_ptr<const CompiledCtmc::Plan> CompiledCtmc::make_plan(
    const std::uint64_t* words) const {
  // The pattern's transitions in declaration order, tagged with their
  // index in the rate slot of an otherwise identical Transition.
  std::vector<Transition> active;
  for (std::size_t k = 0; k < rates_.size(); ++k) {
    if (!bit(words, k)) continue;
    if (rates_[k].from == rates_[k].to) {
      throw std::invalid_argument("Ctmc: self-loop on state '" +
                                  (*states_)[rates_[k].from].name + "'");
    }
    active.push_back(
        {rates_[k].from, rates_[k].to, static_cast<double>(k)});
  }
  std::sort(active.begin(), active.end(), before);

  auto plan = std::make_shared<Plan>();
  for (const Transition& t : active) {
    if (plan->merged.empty() || plan->merged.back().from != t.from ||
        plan->merged.back().to != t.to) {
      plan->merged.push_back({t.from, t.to, 0.0});
      plan->group.push_back(static_cast<std::uint32_t>(plan->order.size()));
    }
    plan->order.push_back(static_cast<std::uint32_t>(t.rate));
  }
  plan->group.push_back(static_cast<std::uint32_t>(plan->order.size()));
  const std::size_t n = states_->size();
  plan->row_offsets.assign(n + 1, 0);
  for (const Transition& t : plan->merged) ++plan->row_offsets[t.from + 1];
  for (std::size_t i = 0; i < n; ++i) {
    plan->row_offsets[i + 1] += plan->row_offsets[i];
  }
  return plan;
}

std::shared_ptr<const CompiledCtmc::Plan> CompiledCtmc::plan_for(
    const std::uint64_t* words) const {
  if (full_plan_ != nullptr) {
    bool full = true;
    for (std::size_t w = 0; w + 1 < pattern_words_ && full; ++w) {
      full = words[w] == ~std::uint64_t{0};
    }
    if (full && pattern_words_ > 0) {
      const std::size_t tail = rates_.size() % 64;
      const std::uint64_t last =
          tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
      full = words[pattern_words_ - 1] == last;
    }
    if (full) return full_plan_;
  }
  Pattern key(words, words + pattern_words_);
  {
    const std::lock_guard<std::mutex> lock(plans_mutex_);
    const auto it = plans_.find(key);
    if (it != plans_.end()) return it->second;
  }
  std::shared_ptr<const Plan> plan = make_plan(words);
  const std::lock_guard<std::mutex> lock(plans_mutex_);
  if (plans_.size() >= kMaxPlans) return plan;
  // A racing bind may have inserted the same pattern first; keep the
  // stored plan so every chain with this pattern shares one memo.
  return plans_.emplace(std::move(key), std::move(plan)).first->second;
}

Ctmc CompiledCtmc::bind(double* values, std::uint8_t* bound,
                        const expr::SlotTable& slots) const {
  bool checked = false;
  for (const std::uint32_t slot : inputs_) {
    if (bound[slot] == 0) {
      checked = true;
      break;
    }
  }
  const auto eval = [&](std::uint32_t entry) {
    return checked ? program_.run_checked(entry, values, bound, slots)
                   : program_.run(entry, values);
  };

  for (const Definition& d : definitions_) {
    if (bound[d.slot] != 0) continue;  // bound by the caller: overridden
    values[d.slot] = eval(d.entry);
    bound[d.slot] = 1;
  }

  // Per-transition rates and the nonzero pattern.
  double inline_rates[kInlineTransitions];
  std::uint64_t inline_words[kInlineTransitions / 64] = {};
  std::vector<double> spill_rates;
  std::vector<std::uint64_t> spill_words;
  double* rates = inline_rates;
  std::uint64_t* words = inline_words;
  if (rates_.size() > kInlineTransitions) {
    spill_rates.resize(rates_.size());
    spill_words.assign(pattern_words_, 0);
    rates = spill_rates.data();
    words = spill_words.data();
  }
  const std::vector<State>& states = *states_;
  for (std::size_t k = 0; k < rates_.size(); ++k) {
    const double value = eval(rates_[k].entry);
    if (value == 0.0) continue;
    if (!(value > 0.0) || !std::isfinite(value)) {
      throw std::invalid_argument(
          "SymbolicCtmc::bind: rate '" + rate_sources_[k] + "' on " +
          states[rates_[k].from].name + " -> " + states[rates_[k].to].name +
          " evaluated to a negative or non-finite value");
    }
    rates[k] = value;
    words[k / 64] |= std::uint64_t{1} << (k % 64);
  }

  Ctmc chain;
  if (rewards_.empty()) {
    chain.states_ = states_;
  } else {
    auto own = std::make_shared<std::vector<State>>(states);
    for (const auto& [state, entry] : rewards_) {
      const double reward = eval(entry);
      if (!std::isfinite(reward)) {
        throw std::invalid_argument("Ctmc: non-finite reward for state '" +
                                    states[state].name + "'");
      }
      (*own)[state].reward = reward;
    }
    chain.states_ = std::move(own);
  }

  const std::shared_ptr<const Plan> plan = plan_for(words);
  const std::size_t n = states.size();
  chain.transitions_.resize(plan->merged.size());
  for (std::size_t i = 0; i < plan->merged.size(); ++i) {
    double rate = rates[plan->order[plan->group[i]]];
    for (std::uint32_t j = plan->group[i] + 1; j < plan->group[i + 1]; ++j) {
      rate += rates[plan->order[j]];
    }
    chain.transitions_[i] = {plan->merged[i].from, plan->merged[i].to, rate};
  }
  chain.row_offsets_ = plan->row_offsets;
  chain.exit_rates_.assign(n, 0.0);
  for (const Transition& t : chain.transitions_) {
    chain.exit_rates_[t.from] += t.rate;
  }
  chain.memo_ = plan->memo;

  std::uint64_t key = mix(id_);
  for (const std::uint32_t slot : key_slots_) {
    key = mix(key ^ bits_of(values[slot]));
  }
  chain.bind_key_ = key;
  return chain;
}

}  // namespace rascal::ctmc
