// rascal_perfbench: the repository benchmark.
//
//   rascal_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced ops for the per-layer metrics and the
// tracing overhead.  Both check every op's output against a reference
// and first run a self-test proving that a perturbed reference makes
// ops count as failed.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The lines before it list every metric by name, unit and base.
//
// Internal modes: --setup-child (one cold start, prints its seconds)
// and --kofn-reference (prints kofn_sparse's reference table).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr std::size_t kSetupRuns = 25;      // cold starts per run
constexpr std::size_t kMinBeyondTail = 10;  // samples beyond the tail
// The timed phase is cut into windows of at least kWindowNs that end on
// a whole cycle of the workload's inputs; throughput is the median of
// the windows' rates.
constexpr std::int64_t kWindowNs = 1000000000;
// Host speed.  On a shared host the same code runs up to 2x slower for
// minutes at a time, with no steal time to show for it (other machines
// busy on the same physical cores), which moved whole runs by more
// than any bound worth setting.  So the benchmark times a fixed kernel
// of its own (calibration_seconds) after every window and before every
// set-up child, and scales each timing it reports by
// kCalibrationRefSeconds / (median kernel time of that phase): the
// timings read as on a host that runs the kernel in the reference
// time.  The kernel is fixed, so a library change moves scaled and
// unscaled timings alike.  The unscaled figures and the factor are
// printed as well.
constexpr double kCalibrationRefSeconds = 0.005;
// Spans kept in memory by the traced run (~64 bytes each).  Once the
// budget is reached the remaining ops of the run are untraced only.
constexpr std::size_t kSpanBudget = 200000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_child = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "rascal_perfbench: %s\nusage: rascal_perfbench --workload "
               "{uncertainty_fig7|batch_hot|kofn_sparse} --seed N --seconds S "
               "--trace {0|1}\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-child") {
      args.setup_child = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "uncertainty_fig7") return make_uncertainty_fig7();
  if (name == "batch_hot") return make_batch_hot();
  if (name == "kofn_sparse") return make_kofn_sparse();
  return nullptr;
}

// High-water resident set of this process image.  VmHWM, unlike
// getrusage's ru_maxrss, is not carried over from the parent across
// exec, so a small workload does not report its launcher's memory.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

// Keeps the calibration kernel's result observable.
volatile double g_calibration_sink = 0.0;

// Times a fixed kernel that calls no library code: elimination on a
// 40x40 matrix and sorting 4,096 integers, the floating-point and the
// branchy kinds of work the workloads do.  Its buffers are small, so
// it leaves peak_rss_mb alone.
double calibration_seconds() {
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  double sum = 0.0;
  const std::int64_t start = now_ns();
  constexpr std::size_t n = 40;
  std::vector<double> a(n * n);
  for (int rep = 0; rep < 150; ++rep) {
    for (double& v : a) v = 1.0 + static_cast<double>(next() % 1000) / 1000.0;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = k + 1; i < n; ++i) {
        const double f = a[i * n + k] / a[k * n + k];
        for (std::size_t j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      }
    }
    sum += a[n * n - 1];
  }
  std::vector<std::uint32_t> keys(4096);
  for (int rep = 0; rep < 15; ++rep) {
    for (std::uint32_t& key : keys) key = static_cast<std::uint32_t>(next());
    std::sort(keys.begin(), keys.end());
    sum += keys[rep];
  }
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  g_calibration_sink = sum;
  return seconds;
}

// Median cold start over kSetupRuns fresh processes of this binary, and
// the calibration times taken before each.  Each child generates its
// inputs, then times its first op; the reference computation never
// runs there, so nothing is warmed.
bool measure_setup(const Args& args, double& setup_s,
                   std::vector<double>& calibration) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) return false;
  self[len] = '\0';
  const std::string command = std::string("'") + self + "' --workload " +
                              args.workload + " --seed " +
                              std::to_string(args.seed) + " --setup-child";
  std::vector<double> runs;
  for (std::size_t i = 0; i < kSetupRuns; ++i) {
    calibration.push_back(calibration_seconds());
    std::FILE* child = popen(command.c_str(), "r");
    if (child == nullptr) return false;
    double value = 0.0;
    const int got = std::fscanf(child, "%lf", &value);
    if (pclose(child) != 0 || got != 1) return false;
    runs.push_back(value);
  }
  setup_s = median(runs);
  return true;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<std::pair<std::string, std::pair<double, std::string>>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

// Ops of one measured phase.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<std::size_t> units_per_op;
  std::size_t units = 0;
  std::size_t failed = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::vector<double> window_rates;  // units per second inside the calls
  std::vector<double> calibration;   // seconds, one per window
};

void account(Phase& phase, const OpResult& r) {
  phase.latency_ms.push_back(static_cast<double>(r.op_ns) / 1e6);
  phase.units_per_op.push_back(r.units);
  phase.units += r.units;
  phase.failed += r.failed;
  phase.lookups += r.cache_lookups;
  phase.hits += r.cache_hits;
}

// Per span name: how many spans, median duration and median self time
// (duration minus the union of its children), probes marked.
void print_span_summary(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::pair<std::string, bool>,
           std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& entry = by_name[{spans[i].name, spans[i].probe}];
    entry.first.push_back(spans[i].duration_us());
    entry.second.push_back(self[i]);
  }
  std::printf("# spans: name, count, median us, median self us\n");
  for (const auto& [key, times] : by_name) {
    std::printf("#   %-32s %-5s %9zu %12.3f %12.3f\n", key.first.c_str(),
                key.second ? "probe" : "op", times.first.size(),
                median(times.first), median(times.second));
  }
}

// Prints the untraced ops' solve-cache hit ratio with its lookup count
// and checks it against the workload's design point.
bool hit_ratio_gate(const Workload& workload, const Phase& phase) {
  if (phase.lookups == 0) return workload.min_hit_ratio() == 0.0;
  const double ratio =
      static_cast<double>(phase.hits) / static_cast<double>(phase.lookups);
  const bool ok = ratio >= workload.min_hit_ratio();
  std::printf("# solve-cache hit ratio %.4f over %llu lookups (gate >= %g): %s\n",
              ratio, static_cast<unsigned long long>(phase.lookups),
              workload.min_hit_ratio(), ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--kofn-reference") == 0) {
    print_kofn_reference();
    return 0;
  }
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (!workload) return usage("unknown workload");

  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t nproc = online > 0 ? static_cast<std::size_t>(online) : 1;
  const std::size_t requested = workload->requested_threads();
  const std::size_t threads = std::min(requested, nproc);

  if (args.setup_child) {
    workload->make_inputs(args.seed, threads);
    const std::int64_t start = now_ns();
    static_cast<void>(workload->run_op(0));
    std::printf("%.17g\n", static_cast<double>(now_ns() - start) / 1e9);
    return 0;
  }

  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) < 0) load[0] = load[1] = load[2] = -1.0;
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              workload->name(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# build_type=%s compiler=\"%s\" nproc=%zu loadavg=%.2f,%.2f,%.2f"
              " threads=%zu%s unit=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, nproc, load[0], load[1],
              load[2], threads,
              threads < requested
                  ? (" (capped from " + std::to_string(requested) +
                     " to nproc)").c_str()
                  : "",
              workload->unit());

  workload->make_inputs(args.seed, threads);
  workload->make_reference();

  // Self-test: a perturbed reference must make op 0 count as failed,
  // the restored one must pass.  The second op 0 doubles as warm-up.
  workload->perturb_reference(true);
  const OpResult perturbed = workload->run_op(0);
  workload->perturb_reference(false);
  const OpResult restored = workload->run_op(0);
  const bool self_test_ok = perturbed.failed > 0 && restored.failed == 0;
  std::printf("# self-test: perturbed reference -> %zu/%zu %ss failed; "
              "restored -> %zu/%zu: %s\n",
              perturbed.failed, perturbed.units, workload->unit(),
              restored.failed, restored.units,
              self_test_ok ? "ok" : "FAILED");

  const double p_tail = workload->tail_percentile();
  const auto min_ops = static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinBeyondTail) / (1.0 - p_tail / 100.0)));
  const std::size_t window_ops = workload->window_ops();
  const auto limit_ns = static_cast<std::int64_t>(args.seconds * 1e9);

  bool correct = self_test_ok;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const auto report = [&](const char* name, double value, const char* unit,
                          const std::string& base) {
    std::printf("  %-38s %-14.6g %-6s %s\n", name, value, unit, base.c_str());
    metrics.push_back({name, {value, unit}});
  };

  if (!args.trace) {
    double setup_raw = 0.0;
    std::vector<double> setup_calibration;
    if (!measure_setup(args, setup_raw, setup_calibration)) {
      std::fprintf(stderr, "rascal_perfbench: a set-up child failed\n");
      return 1;
    }
    Phase phase;
    const std::int64_t start = now_ns();
    std::int64_t window_start = start;
    std::size_t window_first = 0;
    for (std::size_t k = 1;; ++k) {
      account(phase, workload->run_op(k));
      const std::int64_t now = now_ns();
      if (k % window_ops != 0 || now - window_start < kWindowNs) continue;
      double units = 0.0;
      double seconds = 0.0;
      for (std::size_t i = window_first; i < k; ++i) {
        units += static_cast<double>(phase.units_per_op[i]);
        seconds += phase.latency_ms[i] / 1e3;
      }
      phase.window_rates.push_back(units / seconds);
      window_first = k;
      phase.calibration.push_back(calibration_seconds());
      if (now - start >= limit_ns && k >= min_ops) break;
      window_start = now_ns();
    }
    attempted = phase.units;
    failed = phase.failed;
    const double scale = kCalibrationRefSeconds / median(phase.calibration);
    const double setup_scale =
        kCalibrationRefSeconds / median(setup_calibration);
    const std::vector<double>& latency_ms = phase.latency_ms;
    const std::size_t ops = latency_ms.size();
    const double raw_rate = median(phase.window_rates);
    const double raw_p50 = percentile(latency_ms, 50.0);
    const double tail = percentile(latency_ms, p_tail);
    const auto beyond = static_cast<std::size_t>(std::count_if(
        latency_ms.begin(), latency_ms.end(),
        [tail](double v) { return v > tail; }));
    std::printf("# host speed: calibration kernel median %.4g ms over %zu "
                "windows, %.4g ms over the set-up runs (reference %.4g ms);"
                " timings below are scaled by %.4f (set-up %.4f)\n",
                1e3 * median(phase.calibration), phase.calibration.size(),
                1e3 * median(setup_calibration), 1e3 * kCalibrationRefSeconds,
                scale, setup_scale);
    std::printf("# unscaled: setup_s=%.6g throughput_per_s=%.6g "
                "latency_p50_ms=%.6g latency_tail_ms=%.6g\n",
                setup_raw, raw_rate, raw_p50, tail);
    std::printf("# %s end-to-end (tracing off, closed loop, 1 client)\n",
                workload->name());
    report("setup_s", setup_raw * setup_scale, "s",
           "median of " + std::to_string(kSetupRuns) + " cold starts");
    report("throughput_per_s", raw_rate / scale, "1/s",
           std::string(workload->unit()) +
               "s per second inside the calls, median of " +
               std::to_string(phase.window_rates.size()) + " windows");
    report("latency_p50_ms", raw_p50 * scale, "ms",
           "per op, " + std::to_string(ops) + " ops");
    char tail_base[128];
    std::snprintf(tail_base, sizeof tail_base, "p%g over %zu ops, %zu beyond",
                  p_tail, ops, beyond);
    report("latency_tail_ms", tail * scale, "ms", tail_base);
    report("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of this process");
    std::printf("# unscaled latency percentiles (ms): p90=%.4g p95=%.4g p99=%.4g max=%.4g\n",
                percentile(latency_ms, 90.0), percentile(latency_ms, 95.0),
                percentile(latency_ms, 99.0), percentile(latency_ms, 100.0));
    std::printf("  %-38s %-14.6g %-6s %zu of %zu %ss\n", "failed_share",
                phase.units > 0 ? static_cast<double>(phase.failed) /
                                      static_cast<double>(phase.units)
                                : 0.0,
                "ratio", phase.failed, phase.units, workload->unit());
    if (beyond < kMinBeyondTail) {
      std::printf("# warning: fewer than %zu ops beyond the tail percentile\n",
                  kMinBeyondTail);
    }
    correct = hit_ratio_gate(*workload, phase) && correct;
  } else {
    enable_tracing();
    Phase plain;   // every untraced op
    Phase paired;  // the untraced ops that ran next to a traced twin
    Phase traced;
    // Each pair alternates which twin runs first, so warm-up from the
    // first run of an input does not favour either side.
    const std::int64_t start = now_ns();
    std::int64_t calibrated = start;
    for (std::size_t k = 1;; ++k) {
      if (now_ns() - calibrated >= kWindowNs) {
        plain.calibration.push_back(calibration_seconds());
        calibrated = now_ns();
      }
      const bool trace_this = span_count() < kSpanBudget;
      if (trace_this && k % 2 == 0) {
        account(traced, workload->run_traced_op(k));
      }
      const OpResult r = workload->run_op(k);
      account(plain, r);
      if (trace_this) account(paired, r);
      if (trace_this && k % 2 == 1) {
        account(traced, workload->run_traced_op(k));
      }
      if (k % window_ops == 0 && now_ns() - start >= limit_ns) break;
    }
    const std::size_t probe_failed = workload->run_probes();
    attempted = plain.units + traced.units;
    failed = plain.failed + traced.failed;
    correct = hit_ratio_gate(*workload, plain) && correct;
    const std::vector<SpanRecord> spans = collect_spans();
    LayerMetrics layers;
    workload->per_layer(spans, layers);
    const double paired_p50 = median(paired.latency_ms);
    layers.set("trace.overhead_share",
               (median(traced.latency_ms) - paired_p50) / paired_p50,
               "traced vs untraced median op latency over " +
                   std::to_string(traced.latency_ms.size()) +
                   " interleaved pairs of the same op");
    layers.set("trace.spans", static_cast<double>(spans.size()),
               "recorded in this run");
    const std::string dir = ".bench_build/perfbench-out";
    const std::string path = dir + "/" + workload->name() + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::printf("# %s per-layer (traced run; spans in %s%s)\n", workload->name(),
                path.c_str(), write_spans(path, spans) ? "" : " [write failed]");
    const double scale = plain.calibration.empty()
                             ? 1.0
                             : kCalibrationRefSeconds / median(plain.calibration);
    std::printf("# host speed: times (us, ms) scaled by %.4f as in --trace 0\n",
                scale);
    for (const LayerMetricDef& def : layer_metrics()) {
      const bool is_time = std::strcmp(def.unit, "us") == 0 ||
                           std::strcmp(def.unit, "ms") == 0;
      report(def.name, layers.get(def.name) * (is_time ? scale : 1.0), def.unit,
             layers.base(def.name));
    }
    print_span_summary(spans);
    if (probe_failed > 0) {
      std::printf("# probe checks failed: %zu\n", probe_failed);
      correct = false;
    }
  }
  correct = correct && failed == 0;
  std::fflush(stdout);
  print_result(correct, attempted, failed, metrics);
  return 0;
}
