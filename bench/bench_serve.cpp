// Batch/serve-layer microbenchmarks (docs/serving.md): strict JSONL
// request parsing, record rendering, shared-solve-cache lookup, and
// end-to-end batch throughput cold vs warm.  The warm/cold pair is
// the headline number — a repeated-parameter request stream should be
// bounded by cache lookups, not re-solves.  google-benchmark binary.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ctmc/solve_cache.h"
#include "serve/batch.h"
#include "serve/request.h"
#include "serve/sink.h"

namespace {

using namespace rascal;

// run_batch loads models from disk, so the bench materialises one
// small repairable pair next to the temp dir.  Written once, reused
// by every benchmark in the process.
const std::string& model_path() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "bench_serve_model.rasc")
            .string();
    std::ofstream model(p);
    model << "model bench pair\n"
             "param La 0.002\n"
             "param Mu 0.5\n"
             "state Up reward 1\n"
             "state Down reward 0\n"
             "rate Up Down La\n"
             "rate Down Up Mu\n";
    return p;
  }();
  return path;
}

// A request stream of `n` lines cycling through `distinct` parameter
// points: hit rate under a working cache approaches 1 - distinct/n.
std::vector<std::string> request_stream(std::size_t n, std::size_t distinct) {
  std::vector<std::string> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::ostringstream line;
    line << "{\"model\": \"" << model_path() << "\", \"set\": {\"La\": 0.00"
         << (i % distinct + 1) << "}, \"id\": \"r" << i << "\"}";
    lines.push_back(line.str());
  }
  return lines;
}

void BM_ParseRequest(benchmark::State& state) {
  const std::string line =
      "{\"model\": \"m.rasc\", \"id\": \"r1\", \"set\": {\"FIR\": 0.001, "
      "\"La\": 2e-4}, \"method\": \"gmres\", \"precond\": \"jacobi\", "
      "\"max_iterations\": 200, \"outputs\": [\"availability\", \"mtbf\"]}";
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::parse_request(line));
  }
}
BENCHMARK(BM_ParseRequest);

void BM_RenderResultLine(benchmark::State& state) {
  serve::Request request;
  request.id = "sweep-17";
  request.outputs = {serve::OutputKind::kAvailability,
                     serve::OutputKind::kDowntime,
                     serve::OutputKind::kMtbf};
  const std::vector<double> values = {0.9999, 52.56, 123456.7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::render_result_line(17, request, values));
  }
}
BENCHMARK(BM_RenderResultLine);

// Ordered-sink throughput: each in-order push completes the prefix,
// so the pushing thread writes its record at once; close() flushes,
// so each iteration measures every record reaching the stream.
void BM_SinkOrderedPush(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::string record(120, 'x');
  for (auto _ : state) {
    std::ostringstream out;
    serve::ResultsSink sink(out);
    for (std::size_t i = 0; i < n; ++i) sink.push(i, record);
    benchmark::DoNotOptimize(sink.close());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SinkOrderedPush)->Arg(256)->Arg(4096);

void BM_SharedCacheHit(benchmark::State& state) {
  ctmc::SharedSolveCache cache;
  ctmc::SteadyState value;
  value.probabilities = {0.25, 0.75};
  cache.insert(0x5EEDULL, value);
  ctmc::SteadyState out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(0x5EEDULL, out));
  }
}
BENCHMARK(BM_SharedCacheHit);

void BM_SharedCacheMiss(benchmark::State& state) {
  ctmc::SharedSolveCache cache;
  ctmc::SteadyState out;
  std::uint64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key++, out));
  }
}
BENCHMARK(BM_SharedCacheMiss);

// End-to-end: 64-request stream over 8 distinct parameter points.
// Cold disables the shared tier (every distinct point re-solves per
// worker chunk); warm shares solutions across the whole stream.
void run_batch_bench(benchmark::State& state, std::size_t cache_capacity) {
  const std::vector<std::string> lines = request_stream(64, 8);
  double hit_rate = 0.0;
  for (auto _ : state) {
    std::ostringstream out;
    serve::BatchOptions options;
    options.threads = 1;  // single worker: measures the cache, not the pool
    options.cache_capacity = cache_capacity;
    const serve::BatchResult result = serve::run_batch(lines, out, options);
    hit_rate = result.hit_rate();
    benchmark::DoNotOptimize(result.succeeded);
  }
  state.counters["hit_rate"] = hit_rate;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}

void BM_BatchColdCache(benchmark::State& state) { run_batch_bench(state, 0); }
BENCHMARK(BM_BatchColdCache);

void BM_BatchWarmCache(benchmark::State& state) {
  run_batch_bench(state, 1024);
}
BENCHMARK(BM_BatchWarmCache);

}  // namespace

BENCHMARK_MAIN();
