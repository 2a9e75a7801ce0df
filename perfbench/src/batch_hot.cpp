// batch_hot: one op is one serve::run_batch call (1 worker; the sink's
// writer thread is the 2nd) over a seeded stream of about 1,000 valid
// requests against the four examples/models/*.rasc models.  Overrides
// come from a small pool of points per model, so nearly every solve
// lookup hits a cache tier: the solver barely runs, and model load,
// parse, bind, cache key, render and the sink dominate.
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "core/metrics.h"
#include "core/thread_pool.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "ctmc/validate.h"
#include "harness.h"
#include "io/model_file.h"
#include "serve/batch.h"
#include "serve/request.h"
#include "serve/sink.h"
#include "serve/supervise.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace rascal;

// Each model gets overrides of two parameters that appear directly in
// a rate and in no `param` definition, so neither a parameter-DAG fix
// nor rejection of unknown overrides can change any answer or status.
struct ModelSpec {
  const char* path;
  const char* p1;
  double lo1, hi1;
  const char* p2;
  double lo2, hi2;
};
constexpr std::array<ModelSpec, 4> kModels = {{
    {"examples/models/app_server_2inst.rasc", "Tstart_all", 0.25, 2.0, "Acc",
     1.0, 3.0},
    {"examples/models/hadb_pair.rasc", "FIR", 0.0005, 0.002, "Trestore", 0.5,
     4.0},
    {"examples/models/kofn_as_2of3.rasc", "C", 0.8, 0.99, "MuB", 0.25, 1.0},
    {"examples/models/spn_as_coverage.rasc", "La", 0.005, 0.02, "MuR", 10.0,
     40.0},
}};
constexpr std::size_t kPointsPerModel = 4;
// Ops cycle through these streams.  Each stream has its own pool of
// points, so a pair of pool keys colliding in one shared-cache slot
// (evictions ping-pong) costs hits on that stream's ops only.
constexpr std::size_t kStreams = 8;
constexpr std::size_t kRequestsMin = 960;
constexpr std::size_t kRequestsSpread = 81;  // 960..1040 requests a stream
constexpr std::array<const char*, 5> kOutputs = {
    "availability", "downtime", "mtbf", "mttr", "failure_frequency"};
constexpr double kMinHitRatio = 0.9;
constexpr std::size_t kProbeRepeats = 50;

std::string g17(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

struct Point {
  std::size_t model = 0;
  double v1 = 0.0;
  double v2 = 0.0;
  std::array<std::string, kOutputs.size()> expected;  // %.17g per output
};

struct Stream {
  std::vector<std::string> lines;
  std::vector<std::size_t> points;    // pool point per request
  std::vector<unsigned> output_masks;  // bit j = kOutputs[j] requested
};

double metric_value(serve::OutputKind kind, const core::AvailabilityMetrics& m) {
  switch (kind) {
    case serve::OutputKind::kAvailability: return m.availability;
    case serve::OutputKind::kUnavailability: return m.unavailability;
    case serve::OutputKind::kDowntime: return m.downtime_minutes_per_year;
    case serve::OutputKind::kMtbf: return m.mtbf_hours;
    case serve::OutputKind::kMttf: return m.mttf_hours;
    case serve::OutputKind::kMttr: return m.mttr_hours;
    case serve::OutputKind::kRewardRate: return m.expected_reward_rate;
    case serve::OutputKind::kFailureFrequency: return m.failure_frequency;
  }
  return 0.0;
}

// Text of the value of `"key":` inside `line`, up to the next ',' or '}'.
std::string field_text(const std::string& line, const std::string& key,
                       std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle, from);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find_first_of(",}", begin);
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

template <typename Fn>
auto spanned(const char* name, Fn&& fn) {
  const Span span(name);
  return fn();
}

class BatchHot final : public Workload {
 public:
  const char* name() const override { return "batch_hot"; }
  const char* unit() const override { return "request"; }
  // One worker, for the reason given in uncertainty_fig7: 3 workers
  // read 40% slower with 3 busy neighbours on the host.
  std::size_t requested_threads() const override { return 1; }
  std::size_t window_ops() const override { return kStreams; }
  double tail_percentile() const override { return 90.0; }
  double min_hit_ratio() const override { return kMinHitRatio; }

  void make_inputs(std::uint64_t seed, std::size_t threads) override {
    threads_ = threads;
    InputRng rng(seed);
    points_.clear();
    streams_.assign(kStreams, {});
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::size_t first_point = points_.size();
      for (std::size_t m = 0; m < kModels.size(); ++m) {
        for (std::size_t j = 0; j < kPointsPerModel; ++j) {
          Point p;
          p.model = m;
          p.v1 = rng.uniform(kModels[m].lo1, kModels[m].hi1);
          p.v2 = rng.uniform(kModels[m].lo2, kModels[m].hi2);
          points_.push_back(p);
        }
      }
      const std::size_t pool = points_.size() - first_point;
      Stream& stream = streams_[s];
      const std::size_t n = kRequestsMin + rng.index(kRequestsSpread);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t point = first_point + rng.index(pool);
        const auto mask = static_cast<unsigned>(1 + rng.index(31));
        const Point& p = points_[point];
        const ModelSpec& spec = kModels[p.model];
        std::string line = std::string("{\"model\":\"") + spec.path +
                           "\",\"set\":{\"" + spec.p1 + "\":" + g17(p.v1) +
                           ",\"" + spec.p2 + "\":" + g17(p.v2) +
                           "},\"outputs\":[";
        bool first = true;
        for (std::size_t j = 0; j < kOutputs.size(); ++j) {
          if ((mask & (1U << j)) == 0) continue;
          line += (first ? "\"" : ",\"") + std::string(kOutputs[j]) + "\"";
          first = false;
        }
        line += "],\"id\":\"s" + std::to_string(s) + "-" + std::to_string(i) +
                "\"}";
        stream.lines.push_back(std::move(line));
        stream.points.push_back(point);
        stream.output_masks.push_back(mask);
      }
    }
  }

  // Reference: load + bind + uncached, validated GTH solve + metrics.
  void make_reference() override {
    std::vector<io::ModelFile> files;
    for (const ModelSpec& spec : kModels) files.push_back(io::load_model(spec.path));
    for (Point& p : points_) {
      const ModelSpec& spec = kModels[p.model];
      const io::ModelFile& file = files[p.model];
      expr::ParameterSet overrides;
      overrides.set(spec.p1, p.v1);
      overrides.set(spec.p2, p.v2);
      const ctmc::Ctmc chain = file.bind(overrides);
      const core::AvailabilityMetrics m =
          core::availability_metrics(chain, ctmc::solve_steady_state(chain));
      p.expected = {g17(m.availability), g17(m.downtime_minutes_per_year),
                    g17(m.mtbf_hours), g17(m.mttr_hours),
                    g17(m.failure_frequency)};
    }
    have_reference_ = true;
  }

  void perturb_reference(bool on) override {
    // An output that stream 0's first request asks for, so op 0 sees it.
    const unsigned mask = streams_[0].output_masks[0];
    std::size_t j = 0;
    while ((mask & (1U << j)) == 0) ++j;
    std::string& value = points_[streams_[0].points[0]].expected[j];
    if (on) {
      saved_ = value;
      value = g17(std::nextafter(std::stod(value), HUGE_VAL));
    } else {
      value = saved_;
    }
  }

  OpResult run_op(std::size_t k) override {
    const std::size_t s = k % kStreams;
    std::ostringstream out;
    serve::BatchOptions options;
    options.threads = threads_;
    const std::int64_t start = now_ns();
    const serve::BatchResult result =
        serve::run_batch(streams_[s].lines, out, options);
    const std::int64_t op_ns = now_ns() - start;
    std::string text = out.str();
    OpResult op = check(s, text);
    op.op_ns = op_ns;
    op.cache_hits = result.cache.hits + result.worker_hits;
    op.cache_lookups = op.cache_hits + result.cache.misses;
    plain_output_[s] = std::move(text);
    return op;
  }

  // The same pipeline as run_batch, composed from the public calls it
  // makes (parse, load, admission, bind, supervised solve through the
  // two cache tiers, metrics, render, sink) with a span around each.
  // Its output must be byte-identical to run_batch's on the stream.
  OpResult run_traced_op(std::size_t k) override {
    const std::size_t s = k % kStreams;
    const Stream& stream = streams_[s];
    const std::size_t n = stream.lines.size();
    std::ostringstream out;
    const std::uint64_t op = begin_op();
    std::atomic<std::uint64_t> local_hits{0};
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> fallbacks{0};
    ctmc::SharedSolveCache::Stats shared_stats;
    bool shadow_ok = true;
    const std::int64_t start = now_ns();
    try {
      const Span op_span("serve.batch");
      const std::uint64_t parent = op_span.id();
      std::vector<serve::Request> requests;
      requests.reserve(n);
      for (const std::string& line : stream.lines) {
        requests.push_back(
            spanned("serve.parse", [&] { return serve::parse_request(line); }));
      }
      std::map<std::string, io::ModelFile> models;
      for (const serve::Request& r : requests) {
        if (models.count(r.model_path) != 0) continue;
        models.emplace(r.model_path, spanned("io.load", [&] {
                         return io::load_model(r.model_path);
                       }));
      }
      const serve::SupervisionOptions supervision;
      for (const serve::Request& r : requests) {
        if (!spanned("serve.admission", [&] {
               return serve::admission_verdict(models.at(r.model_path),
                                               supervision);
             }).empty()) {
          shadow_ok = false;
        }
      }
      ctmc::SharedSolveCache::Config cache_config;
      cache_config.capacity = serve::BatchOptions{}.cache_capacity;
      ctmc::SharedSolveCache shared(cache_config);
      {
        serve::ResultsSink sink(out);
        core::parallel_for(
            n, threads_, [&](std::size_t begin, std::size_t end) {
              const ParentScope scope(parent, op);
              ctmc::SolveCache local;
              local.set_shared(shared.enabled() ? &shared : nullptr);
              for (std::size_t i = begin; i < end; ++i) {
                const Span request_span("serve.request");
                const serve::Request& r = requests[i];
                const io::ModelFile& file = models.at(r.model_path);
                const ctmc::Ctmc chain =
                    spanned("ctmc.bind", [&] { return file.bind(r.overrides); });
                serve::SolveSpec spec;
                spec.method = r.method;
                spec.precond = r.precond;
                spec.sparse_threshold = r.sparse_threshold;
                spec.max_iterations = r.max_iterations;
                spec.gmres_restart = r.gmres_restart;
                const serve::SupervisedSolve solved =
                    spanned("serve.supervise", [&] {
                      return serve::supervised_solve(chain, spec, local,
                                                     supervision);
                    });
                const core::AvailabilityMetrics metrics =
                    spanned("core.metrics", [&] {
                      return core::availability_metrics(chain, solved.steady);
                    });
                std::vector<double> values;
                values.reserve(r.outputs.size());
                for (const serve::OutputKind kind : r.outputs) {
                  values.push_back(metric_value(kind, metrics));
                }
                std::string line = spanned("serve.render", [&] {
                  return serve::render_result_line(i, r, values,
                                                   solved.fallback);
                });
                {
                  const Span push("serve.sink.push");
                  sink.push(i, std::move(line));
                }
                attempts.fetch_add(solved.attempts, std::memory_order_relaxed);
                if (!solved.fallback.empty()) {
                  fallbacks.fetch_add(1, std::memory_order_relaxed);
                }
              }
              local_hits.fetch_add(local.hits(), std::memory_order_relaxed);
            });
        const Span close("serve.sink.close");
        sink.close();
      }
      shared_stats = shared.stats();
    } catch (const std::exception& failure) {
      std::fprintf(stderr, "batch_hot traced op failed: %s\n", failure.what());
      shadow_ok = false;
    }
    const std::int64_t op_ns = now_ns() - start;
    OpResult result = check(s, out.str());
    result.op_ns = op_ns;
    const auto plain = plain_output_.find(s);
    if (!shadow_ok ||
        (plain != plain_output_.end() && plain->second != out.str())) {
      result.failed = n;  // the shadow no longer matches run_batch
    }
    result.cache_hits = local_hits.load() + shared_stats.hits;
    result.cache_lookups = result.cache_hits + shared_stats.misses;
    lookups_.push_back(static_cast<double>(result.cache_lookups));
    hits_ += result.cache_hits;
    fresh_solves_.push_back(static_cast<double>(shared_stats.misses));
    insertions_.push_back(static_cast<double>(shared_stats.insertions));
    evictions_.push_back(static_cast<double>(shared_stats.evictions));
    requests_ += n;
    attempts_ += attempts.load();
    fallbacks_ += fallbacks.load();
    return result;
  }

  // Times the steps a hit skips or that run inside supervised_solve:
  // the cache key, structural validation and the GTH solve, repeated on
  // every pool point's bound chain.
  std::size_t run_probes() override {
    std::size_t failed = 0;
    std::vector<io::ModelFile> files;
    for (const ModelSpec& spec : kModels) files.push_back(io::load_model(spec.path));
    for (const Point& p : points_) {
      const ModelSpec& spec = kModels[p.model];
      const io::ModelFile& file = files[p.model];
      expr::ParameterSet overrides;
      overrides.set(spec.p1, p.v1);
      overrides.set(spec.p2, p.v2);
      const ctmc::Ctmc chain = file.bind(overrides);
      linalg::SolveWorkspace workspace;
      for (std::size_t r = 0; r < kProbeRepeats; ++r) {
        {
          const Span span("ctmc.cache_key", /*probe=*/true);
          static_cast<void>(ctmc::steady_state_key(
              chain, ctmc::SteadyStateMethod::kGth, ctmc::Validation::kOn, {}));
        }
        {
          const Span span("ctmc.validate", /*probe=*/true);
          if (ctmc::validate_for_steady_state(chain).has_errors()) ++failed;
        }
        const Span span("linalg.dense_solve", /*probe=*/true);
        ctmc::SolveControl control;
        control.workspace = &workspace;
        static_cast<void>(ctmc::solve_steady_state(
            chain, ctmc::SteadyStateMethod::kGth, ctmc::Validation::kOff,
            control));
      }
    }
    return failed;
  }

  void per_layer(const std::vector<SpanRecord>& spans,
                 LayerMetrics& out) override {
    const std::string per_op = "per op of ~1000 requests";
    out.set("serve.parse.us", median(durations_us(spans, "serve.parse")));
    out.set("serve.admission.us", median(durations_us(spans, "serve.admission")));
    out.set("serve.render.us", median(durations_us(spans, "serve.render")));
    out.set("serve.sink.push.us", median(durations_us(spans, "serve.sink.push")));
    out.set("serve.sink.close_wait.ms",
            median(durations_us(spans, "serve.sink.close")) / 1e3);
    const std::string over_requests =
        "over " + std::to_string(requests_) + " traced requests";
    out.set("serve.supervise.attempts_per_request",
            requests_ > 0 ? static_cast<double>(attempts_) /
                                static_cast<double>(requests_)
                          : 0.0,
            over_requests);
    out.set("serve.supervise.fallback_share",
            requests_ > 0 ? static_cast<double>(fallbacks_) /
                                static_cast<double>(requests_)
                          : 0.0,
            over_requests);
    out.set("io.load.ms", median(durations_us(spans, "io.load")) / 1e3);
    out.set("io.load.calls", median_count_per_op(spans, "serve.batch", "io.load"),
            "per op");
    out.set("ctmc.bind.us", median(durations_us(spans, "ctmc.bind")));
    out.set("ctmc.bind.calls",
            median_count_per_op(spans, "serve.batch", "ctmc.bind"), per_op);
    out.set("ctmc.cache_key.us", median(durations_us(spans, "ctmc.cache_key")),
            "probe");
    double lookups = 0.0;
    for (const double l : lookups_) lookups += l;
    out.set("ctmc.cache.lookups", median(lookups_), per_op);
    out.set("ctmc.cache.hit_ratio",
            lookups > 0.0 ? static_cast<double>(hits_) / lookups : 0.0,
            "of " + std::to_string(static_cast<long long>(lookups)) +
                " lookups over all traced ops");
    out.set("ctmc.shared_cache.insertions", median(insertions_), per_op);
    out.set("ctmc.shared_cache.evictions", median(evictions_), per_op);
    out.set("ctmc.validate.us", median(durations_us(spans, "ctmc.validate")),
            "probe");
    out.set("ctmc.validate.calls", median(fresh_solves_),
            per_op + " (one per miss on both tiers)");
    out.set("linalg.dense_solve.us",
            median(durations_us(spans, "linalg.dense_solve")), "probe");
    out.set("linalg.dense_solve.calls", median(fresh_solves_),
            per_op + " (one per miss on both tiers)");
    out.set("core.metrics.us", median(durations_us(spans, "core.metrics")));
    const PoolFigures pool =
        pool_figures(spans, "serve.batch", "serve.request", threads_);
    out.set("core.thread_pool.utilisation", pool.utilisation,
            "request busy / (" + std::to_string(threads_) +
                " threads x op wall)");
    out.set("core.thread_pool.imbalance", pool.imbalance,
            "busiest worker / mean worker busy");
  }

 private:
  // Counts the records that are missing, not "ok", or whose %.17g
  // values differ from the reference.
  OpResult check(std::size_t s, const std::string& output) const {
    const Stream& stream = streams_[s];
    OpResult out;
    out.units = stream.lines.size();
    if (!have_reference_) return out;  // set-up child: unchecked
    std::istringstream in(output);
    std::string line;
    std::size_t i = 0;
    for (; i < out.units && std::getline(in, line); ++i) {
      bool ok = field_text(line, "index") == std::to_string(i) &&
                field_text(line, "status") == "\"ok\"";
      const std::size_t results = line.find("\"results\":{");
      const Point& p = points_[stream.points[i]];
      for (std::size_t j = 0; ok && j < kOutputs.size(); ++j) {
        if ((stream.output_masks[i] & (1U << j)) == 0) continue;
        ok = results != std::string::npos &&
             field_text(line, kOutputs[j], results) == p.expected[j];
      }
      if (!ok) ++out.failed;
    }
    out.failed += out.units - i;  // records never written
    return out;
  }

  std::size_t threads_ = 1;
  std::vector<Point> points_;
  std::vector<Stream> streams_;
  bool have_reference_ = false;
  std::string saved_;
  std::map<std::size_t, std::string> plain_output_;  // last run_batch bytes
  std::vector<double> lookups_;
  std::uint64_t hits_ = 0;
  std::vector<double> fresh_solves_;
  std::vector<double> insertions_;
  std::vector<double> evictions_;
  std::size_t requests_ = 0;
  std::uint64_t attempts_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_batch_hot() {
  return std::make_unique<BatchHot>();
}

}  // namespace perfbench
