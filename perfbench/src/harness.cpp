#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

const std::vector<LayerMetricDef>& layer_metrics() {
  static const std::vector<LayerMetricDef> defs = {
      {"serve.parse.us", "us"},
      {"serve.admission.us", "us"},
      {"serve.render.us", "us"},
      {"serve.sink.push.us", "us"},
      {"serve.sink.close_wait.ms", "ms"},
      {"serve.supervise.attempts_per_request", "ratio"},
      {"serve.supervise.fallback_share", "ratio"},
      {"io.load.ms", "ms"},
      {"io.load.calls", "count"},
      {"ctmc.bind.us", "us"},
      {"ctmc.bind.calls", "count"},
      {"ctmc.cache_key.us", "us"},
      {"ctmc.cache.lookups", "count"},
      {"ctmc.cache.hit_ratio", "ratio"},
      {"ctmc.shared_cache.insertions", "count"},
      {"ctmc.shared_cache.evictions", "count"},
      {"ctmc.validate.us", "us"},
      {"ctmc.validate.calls", "count"},
      {"linalg.dense_solve.us", "us"},
      {"linalg.dense_solve.calls", "count"},
      {"ctmc.sparse_generator.ms", "ms"},
      {"linalg.stationary_system.ms", "ms"},
      {"linalg.precond.ms", "ms"},
      {"linalg.krylov.ms", "ms"},
      {"linalg.krylov.iterations", "count"},
      {"models.kofn.build_ms", "ms"},
      {"models.kofn.states", "count"},
      {"models.kofn.nnz", "count"},
      {"models.solve_jsas.us", "us"},
      {"core.hierarchy.self_us", "us"},
      {"analysis.sample.us", "us"},
      {"analysis.serial_share", "ratio"},
      {"core.metrics.us", "us"},
      {"core.thread_pool.utilisation", "ratio"},
      {"core.thread_pool.imbalance", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"trace.spans", "count"},
  };
  return defs;
}

LayerMetrics::LayerMetrics() {
  for (const LayerMetricDef& def : layer_metrics()) values_[def.name] = 0.0;
}

void LayerMetrics::set(const std::string& name, double value,
                       const std::string& base) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric '" + name + "'");
  }
  it->second = std::isfinite(value) ? value : 0.0;
  bases_[name] = base;
}

double LayerMetrics::get(const std::string& name) const {
  return values_.at(name);
}

const std::string& LayerMetrics::base(const std::string& name) const {
  static const std::string empty;
  const auto it = bases_.find(name);
  return it == bases_.end() ? empty : it->second;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::vector<double> durations_us(const std::vector<SpanRecord>& spans,
                                 const char* name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.duration_us());
  }
  return out;
}

double median_count_per_op(const std::vector<SpanRecord>& spans,
                           const char* op_name, const char* name) {
  std::map<std::uint64_t, double> per_op;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, op_name) == 0) per_op.emplace(s.op, 0.0);
  }
  for (const SpanRecord& s : spans) {
    const auto it = per_op.find(s.op);
    if (it != per_op.end() && std::strcmp(s.name, name) == 0) {
      it->second += 1.0;
    }
  }
  std::vector<double> counts;
  for (const auto& [op, count] : per_op) counts.push_back(count);
  return median(counts);
}

PoolFigures pool_figures(const std::vector<SpanRecord>& spans,
                         const char* op_name, const char* busy_name,
                         std::size_t threads) {
  struct OpData {
    const SpanRecord* op = nullptr;
    std::vector<const SpanRecord*> items;
  };
  std::map<std::uint64_t, OpData> ops;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, op_name) == 0) ops[s.op].op = &s;
  }
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, busy_name) != 0) continue;
    const auto it = ops.find(s.op);
    if (it != ops.end()) it->second.items.push_back(&s);
  }
  std::vector<double> utilisation, imbalance, serial, gaps;
  for (auto& [id, data] : ops) {
    if (data.op == nullptr || data.items.empty()) continue;
    const double wall = static_cast<double>(data.op->end_ns -
                                            data.op->start_ns);
    std::map<std::uint32_t, std::vector<const SpanRecord*>> by_thread;
    double busy = 0.0;
    std::int64_t first = data.items.front()->start_ns;
    std::int64_t last = data.items.front()->end_ns;
    for (const SpanRecord* s : data.items) {
      by_thread[s->thread].push_back(s);
      busy += static_cast<double>(s->end_ns - s->start_ns);
      first = std::min(first, s->start_ns);
      last = std::max(last, s->end_ns);
    }
    double slowest = 0.0;
    for (auto& [thread, items] : by_thread) {
      std::sort(items.begin(), items.end(),
                [](const SpanRecord* a, const SpanRecord* b) {
                  return a->start_ns < b->start_ns;
                });
      double thread_busy = 0.0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        thread_busy += static_cast<double>(items[i]->end_ns -
                                           items[i]->start_ns);
        if (i > 0) {
          gaps.push_back(static_cast<double>(items[i]->start_ns -
                                             items[i - 1]->start_ns) /
                         1e3);
        }
      }
      slowest = std::max(slowest, thread_busy);
    }
    const double workers = static_cast<double>(std::max<std::size_t>(1, threads));
    utilisation.push_back(busy / (workers * wall));
    imbalance.push_back(slowest / (busy / workers));
    serial.push_back(1.0 - static_cast<double>(last - first) / wall);
  }
  PoolFigures out;
  out.utilisation = median(utilisation);
  out.imbalance = median(imbalance);
  out.serial_share = median(serial);
  out.item_gap_us = median(gaps);
  return out;
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double InputRng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::size_t InputRng::index(std::size_t bound) {
  return static_cast<std::size_t>(next() % bound);
}

}  // namespace perfbench
