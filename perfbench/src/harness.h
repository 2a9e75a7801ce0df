// The benchmark's workload interface, per-layer metric table and the
// statistics the harness reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Outcome of one op: time inside the workload's entry-point call(s),
/// units completed, units that errored or returned a wrong result, and
/// the solve-cache lookups the op made (0 when not observed).
struct OpResult {
  std::int64_t op_ns = 0;
  std::size_t units = 0;
  std::size_t failed = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
};

/// Per-layer metrics of the traced run.  Every name in layer_metrics()
/// is printed by every traced run; a layer the workload never calls
/// reads 0 (its calls count reads 0 too).
class LayerMetrics {
 public:
  LayerMetrics();
  /// Sets a metric from layer_metrics(); `base` says what a count or
  /// ratio is taken over, for the human-readable listing.
  void set(const std::string& name, double value, const std::string& base = "");
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::string& base(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> bases_;
};

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in print order (mirrors BENCHMARK.json).
[[nodiscard]] const std::vector<LayerMetricDef>& layer_metrics();

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// What throughput_per_s counts ("sample", "request", "solve").
  [[nodiscard]] virtual const char* unit() const = 0;
  /// Worker threads the workload asks for (capped to nproc by main).
  [[nodiscard]] virtual std::size_t requested_threads() const = 0;
  /// Percentile (0-100) reported as latency_tail_ms.
  [[nodiscard]] virtual double tail_percentile() const = 0;
  /// Windows of the timed phase end on a multiple of this many ops, so
  /// a window holds whole cycles of a workload's inputs.
  [[nodiscard]] virtual std::size_t window_ops() const = 0;
  /// Lowest acceptable cache hit ratio over the timed phase (0 = none).
  [[nodiscard]] virtual double min_hit_ratio() const { return 0.0; }

  /// Generates the op inputs from the seed.  Not timed.
  virtual void make_inputs(std::uint64_t seed, std::size_t threads) = 0;
  /// Computes the correctness reference.  Not timed; ops run before
  /// it are not checked (the set-up child measures a cold start).
  virtual void make_reference() = 0;
  /// Perturbs one reference value (on = true) or restores it, for the
  /// self-test that proves a wrong result is counted as failed.
  virtual void perturb_reference(bool on) = 0;

  /// Runs op k and checks it.  Op 0 is the fixed set-up op.
  virtual OpResult run_op(std::size_t k) = 0;
  /// Runs op k with spans around each public call, same checks.
  virtual OpResult run_traced_op(std::size_t k) = 0;
  /// Labelled probes: steps that can be timed only by repeating them,
  /// run outside any op.  Returns units that failed a probe check.
  virtual std::size_t run_probes() = 0;
  /// Derives the per-layer metrics from the spans of the traced ops
  /// and probes.
  virtual void per_layer(const std::vector<SpanRecord>& spans,
                         LayerMetrics& out) = 0;
};

// ---- statistics -----------------------------------------------------

/// Linear-interpolated percentile (p in 0..100) of unsorted values;
/// 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// Durations (us) of every span named `name`.
[[nodiscard]] std::vector<double> durations_us(
    const std::vector<SpanRecord>& spans, const char* name);

/// Median over ops of the number of `name` spans per op.
[[nodiscard]] double median_count_per_op(const std::vector<SpanRecord>& spans,
                                         const char* op_name,
                                         const char* name);

/// Thread-pool figures of the ops named `op_name` whose work items are
/// the `busy_name` spans: median over ops of
///   utilisation = sum(busy) / (threads * op wall),
///   imbalance   = busiest worker's busy / mean worker busy,
///   serial share = 1 - (last busy end - first busy start) / op wall,
///   item gap    = median gap between consecutive item starts on one
///                 worker (the per-item cost the dispatching loop sees).
struct PoolFigures {
  double utilisation = 0.0;
  double imbalance = 0.0;
  double serial_share = 0.0;
  double item_gap_us = 0.0;
};
[[nodiscard]] PoolFigures pool_figures(const std::vector<SpanRecord>& spans,
                                       const char* op_name,
                                       const char* busy_name,
                                       std::size_t threads);

/// splitmix64: the benchmark's own input generator, independent of the
/// library's RNG so inputs do not move when the library's RNG does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform in [0, bound).
  std::size_t index(std::size_t bound);

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
