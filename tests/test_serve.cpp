// Unit tests for the batch/serve layer: the strict JSONL request
// parser (hostile input becomes a typed RequestError, never a crash
// or silent default), the deterministic record rendering, the ordered
// results sink, and the end-to-end batch runner including per-request
// error records and cold/warm cache bit-identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "resil/chaos.h"
#include "serve/batch.h"
#include "serve/request.h"
#include "serve/sink.h"
#include "serve/supervise.h"
#include "unique_temp_path.h"

namespace rascal::serve {
namespace {

// ---- request parsing --------------------------------------------------

TEST(ServeRequest, ParsesFullRequest) {
  const Request request = parse_request(
      R"({"model": "m.rasc", "id": "r1", "set": {"FIR": 0.001, "La": 2e-4},)"
      R"( "method": "gmres", "precond": "jacobi", "sparse_threshold": 50,)"
      R"( "max_iterations": 200, "gmres_restart": 30,)"
      R"( "outputs": ["availability", "mtbf", "reward_rate"]})");
  EXPECT_EQ(request.model_path, "m.rasc");
  EXPECT_EQ(request.id, "r1");
  EXPECT_DOUBLE_EQ(request.overrides.get("FIR"), 0.001);
  EXPECT_DOUBLE_EQ(request.overrides.get("La"), 2e-4);
  EXPECT_EQ(request.method, ctmc::SteadyStateMethod::kGmres);
  EXPECT_EQ(request.precond, linalg::PrecondKind::kJacobi);
  EXPECT_EQ(request.sparse_threshold, 50u);
  EXPECT_EQ(request.max_iterations, 200u);
  EXPECT_EQ(request.gmres_restart, 30u);
  ASSERT_EQ(request.outputs.size(), 3u);
  EXPECT_EQ(request.outputs[0], OutputKind::kAvailability);
  EXPECT_EQ(request.outputs[1], OutputKind::kMtbf);
  EXPECT_EQ(request.outputs[2], OutputKind::kRewardRate);
}

TEST(ServeRequest, MinimalRequestGetsDefaults) {
  const Request request = parse_request(R"({"model": "m.rasc"})");
  EXPECT_EQ(request.method, ctmc::SteadyStateMethod::kGth);
  EXPECT_EQ(request.precond, linalg::PrecondKind::kIlu0);
  ASSERT_EQ(request.outputs.size(), 2u);
  EXPECT_EQ(request.outputs[0], OutputKind::kAvailability);
  EXPECT_EQ(request.outputs[1], OutputKind::kDowntime);
}

TEST(ServeRequest, RejectsHostileInput) {
  const char* cases[] = {
      "",                                          // empty line
      "not json",                                  // not an object
      R"({"set": {"FIR": 1}})",                    // missing model
      R"({"model": ""})",                          // empty model path
      R"({"model": "m.rasc", "methd": "lu"})",     // typoed field
      R"({"model": "m.rasc", "method": "qr"})",    // unknown method
      R"({"model": "m.rasc", "precond": "amg"})",  // unknown precond
      R"({"model": "m.rasc", "outputs": []})",     // empty outputs
      R"({"model": "m.rasc", "outputs": ["upness"]})",  // unknown output
      R"({"model": "m.rasc", "set": {"FIR": nan}})",    // non-finite
      R"({"model": "m.rasc", "set": {"FIR": 1e999}})",  // overflows
      R"({"model": "m.rasc", "set": {"": 1}})",         // empty name
      R"({"model": "m.rasc", "max_iterations": -3})",   // negative count
      R"({"model": "m.rasc", "max_iterations": 1.5})",  // fractional
      R"({"model": "m.rasc"} trailing)",                // trailing text
      R"({"model": "m.rasc")",                          // unterminated
      R"({"model": "m.rasc", "set": {"FIR": }})",       // missing value
  };
  for (const char* line : cases) {
    EXPECT_THROW((void)parse_request(line), RequestError)
        << "accepted: " << line;
  }
}

TEST(ServeRequest, ErrorsCarryByteOffsets) {
  try {
    (void)parse_request(R"({"model": "m.rasc", "bogus": 1})");
    FAIL() << "unknown field accepted";
  } catch (const RequestError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(ServeRequest, DecodesEscapesBeforeAndAfterPlainText) {
  // Strings without escapes are read in place, escaped ones are decoded
  // into a buffer the next string reuses: each field must keep its own
  // text whichever kind came before it.
  const Request request = parse_request(
      R"({"id": "\"a\\b\/c\nd\te\r", "model": "dir\/m.rasc",)"
      R"( "set": {"\tX": 1, "Y\\": 2, "plain": 3, "p\/q": 4},)"
      R"( "method": "gmres", "outputs": ["mttf", "availability"]})");
  EXPECT_EQ(request.id, "\"a\\b/c\nd\te\r");
  EXPECT_EQ(request.model_path, "dir/m.rasc");
  EXPECT_DOUBLE_EQ(request.overrides.get("\tX"), 1.0);
  EXPECT_DOUBLE_EQ(request.overrides.get("Y\\"), 2.0);
  EXPECT_DOUBLE_EQ(request.overrides.get("plain"), 3.0);
  EXPECT_DOUBLE_EQ(request.overrides.get("p/q"), 4.0);
  EXPECT_EQ(request.method, ctmc::SteadyStateMethod::kGmres);
  ASSERT_EQ(request.outputs.size(), 2u);
  EXPECT_EQ(request.outputs[0], OutputKind::kMttf);
  EXPECT_EQ(request.outputs[1], OutputKind::kAvailability);

  const Request plain_after_escaped =
      parse_request(R"({"model": "a\nb", "id": "x"})");
  EXPECT_EQ(plain_after_escaped.model_path, "a\nb");
  EXPECT_EQ(plain_after_escaped.id, "x");
}

TEST(ServeRequest, ErrorMessagesAndOffsetsAreExact) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"model": "m.rasc", "model": "x"})",
       "request, offset 27: duplicate field 'model'"},
      {R"({"id": "a\nb", "model": "m", "id": "c"})",
       "request, offset 33: duplicate field 'id'"},
      {R"({"model": "m.rasc", "bogus": 1})",
       "request, offset 28: unknown field 'bogus'"},
      {R"({"model": "m.rasc", "b\"og\\us": 1})",
       "request, offset 32: unknown field 'b\"og\\us'"},
      {R"({"model": "m.rasc", "outputs": ["upness"]})",
       "request, offset 40: unknown output 'upness'"},
      {R"({"model": "m.rasc", "outputs": ["mttf", "avail\/ability"]})",
       "request, offset 56: unknown output 'avail/ability'"},
      {R"({"model": "m.rasc", "outputs": ["avail\u0061bility"]})",
       "request, offset 39: unsupported escape sequence"},
      {R"({"model": "m.rasc", "method": "q\tr"})",
       "request, offset 36: unknown method 'q\tr'"},
      {R"({"model": "m.rasc", "precond": "amg"})",
       "request, offset 36: unknown preconditioner 'amg'"},
      {R"({"model" "m.rasc"})", "request, offset 9: expected ':'"},
      {R"({"model": "m.rasc", "max_iterations": 1.5})",
       "request, offset 41: field \"max_iterations\" must be a "
       "non-negative integer"},
      {R"({"model": "m.rasc", "gmres_restart": -2})",
       "request, offset 39: field \"gmres_restart\" must be a "
       "non-negative integer"},
      {R"({"model": "m.rasc", "set": {"FIR": 1e999}})",
       "request, offset 40: non-finite number"},
      {R"({"model": "m.rasc", "set": {"FIR": }})",
       "request, offset 35: expected a number"},
      {R"({"model": "m.rasc\)", "request, offset 18: unterminated escape"},
      {R"({"model": "m.rasc)", "request, offset 17: unterminated string"},
      {R"({"model": ""})", "request, offset 12: \"model\" must not be empty"},
      {R"({"set": {}})",
       "request, offset 11: request is missing the \"model\" field"},
      {R"({"model": "m"} x)",
       "request, offset 15: trailing content after request object"},
  };
  for (const auto& [line, message] : cases) {
    try {
      (void)parse_request(line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const RequestError& e) {
      EXPECT_EQ(std::string(e.what()), message) << "line: " << line;
    }
  }
}

// ---- record rendering -------------------------------------------------

TEST(ServeRender, ResultLineIsDeterministicJson) {
  Request request;
  request.id = "sweep-17";
  request.outputs = {OutputKind::kAvailability, OutputKind::kDowntime};
  const std::string line = render_result_line(3, request, {0.5, 1.0 / 3.0});
  EXPECT_EQ(line,
            "{\"schema\":\"rascal.serve.v1\",\"index\":3,\"id\":\"sweep-17\","
            "\"status\":\"ok\",\"results\":{\"availability\":0.5,"
            "\"downtime\":0.33333333333333331}}");
}

TEST(ServeRender, ErrorLineEscapesMessage) {
  const std::string line =
      render_error_line(0, "id\"x", "bad \"input\"\nline2");
  EXPECT_EQ(line,
            "{\"schema\":\"rascal.serve.v1\",\"index\":0,\"id\":\"id\\\"x\","
            "\"status\":\"error\",\"error\":\"bad \\\"input\\\"\\nline2\"}");
}

TEST(ServeRender, ValuesMatchPrintfG17ByteForByte) {
  // Records print values with std::to_chars (general, precision 17);
  // they must stay byte-identical to the historic "%.17g" text,
  // including the exponent switch points, subnormals and non-finites.
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      1.0 / 3.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double edge : {1e-5, 1e-4, 1e16, 1e17}) {
    values.push_back(std::nextafter(edge, 0.0));
    values.push_back(edge);
    values.push_back(std::nextafter(edge, HUGE_VAL));
    values.push_back(-edge);
  }
  std::mt19937_64 bits(20040628);
  for (int k = 0; k < 200000; ++k) {
    const std::uint64_t word = bits();
    double v = 0.0;
    std::memcpy(&v, &word, sizeof v);
    values.push_back(v);
  }
  Request request;
  request.outputs = {OutputKind::kMtbf};
  std::size_t mismatches = 0;
  for (const double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "%.17g", v);
    const std::string line = render_result_line(0, request, {v});
    const std::string want = "{\"schema\":\"rascal.serve.v1\",\"index\":0,"
                             "\"status\":\"ok\",\"results\":{\"mtbf\":" +
                             std::string(expected) + "}}";
    if (line != want && ++mismatches <= 5) {
      ADD_FAILURE() << "value " << expected << " rendered as " << line;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(ServeRender, ShedAndClassedErrorLinesAreByteExact) {
  EXPECT_EQ(render_shed_line(18446744073709551615ULL, "q\x01", "queue full"),
            "{\"schema\":\"rascal.serve.v1\",\"index\":18446744073709551615,"
            "\"id\":\"q\\u0001\",\"status\":\"shed\",\"reason\":\"queue "
            "full\"}");
  EXPECT_EQ(render_error_line(4, "", "late\tline\r", "lost"),
            "{\"schema\":\"rascal.serve.v1\",\"index\":4,\"status\":\"error\","
            "\"class\":\"lost\",\"error\":\"late\\tline\\r\"}");
  Request request;
  request.outputs = {OutputKind::kAvailability};
  EXPECT_EQ(render_result_line(0, request, {1.0}, "precond:\"jacobi\""),
            "{\"schema\":\"rascal.serve.v1\",\"index\":0,\"status\":\"ok\","
            "\"fallback\":\"precond:\\\"jacobi\\\"\",\"results\":{"
            "\"availability\":1}}");
}

// ---- results sink -----------------------------------------------------

TEST(ServeSink, WritesRecordsInIndexOrder) {
  std::ostringstream out;
  {
    ResultsSink sink(out);
    // Deliberately out of order: nothing may appear until index 0
    // lands, then the whole contiguous prefix drains.
    sink.push(2, "two");
    sink.push(1, "one");
    sink.push(0, "zero");
    sink.push(3, "three");
    EXPECT_EQ(sink.close(), 4u);
  }
  EXPECT_EQ(out.str(), "zero\none\ntwo\nthree\n");
}

TEST(ServeSink, CloseCountsGapsAndKeepsLaterRecordsWithoutFiller) {
  std::ostringstream out;
  ResultsSink sink(out);
  sink.push(0, "zero");
  sink.push(2, "two");  // index 1 never arrives (dead worker)
  EXPECT_EQ(sink.close(), 2u);
  // Without a filler nothing is emitted for the hole, but the gap is
  // counted and the later record is no longer silently dropped.
  EXPECT_EQ(out.str(), "zero\ntwo\n");
  EXPECT_EQ(sink.gaps(), 1u);
}

TEST(ServeSink, CloseFillsGapsThroughTheFiller) {
  std::ostringstream out;
  ResultsSink sink(out);
  sink.set_gap_filler([](std::size_t index) {
    return "gap:" + std::to_string(index);
  });
  sink.push(0, "zero");
  sink.push(3, "three");  // indices 1 and 2 never arrive
  EXPECT_EQ(sink.close(), 4u);
  EXPECT_EQ(out.str(), "zero\ngap:1\ngap:2\nthree\n");
  EXPECT_EQ(sink.gaps(), 2u);
  EXPECT_EQ(sink.write_failures(), 0u);
}

TEST(ServeSink, TrailingUnpushedIndicesAreNotGaps) {
  std::ostringstream out;
  ResultsSink sink(out);
  sink.set_gap_filler([](std::size_t index) {
    return "gap:" + std::to_string(index);
  });
  sink.push(0, "zero");
  sink.push(1, "one");  // an interrupted run simply stops here
  EXPECT_EQ(sink.close(), 2u);
  EXPECT_EQ(out.str(), "zero\none\n");
  EXPECT_EQ(sink.gaps(), 0u);
}

TEST(ServeSink, ChaosWriteFailureIsCountedNotSilent) {
  resil::chaos::configure("sink-write-fail@1");
  std::ostringstream out;
  {
    ResultsSink sink(out);
    sink.push(0, "zero");
    sink.push(1, "one");
    sink.push(2, "two");
    EXPECT_EQ(sink.close(), 3u);
    EXPECT_EQ(sink.write_failures(), 1u);
  }
  resil::chaos::configure("");
  // Record 1 was refused by the stream; later indices keep flowing.
  EXPECT_EQ(out.str(), "zero\ntwo\n");
}

// Pushes every index of `order` from `producers` threads, thread t
// taking positions t, t + producers, ... of the order.
void push_concurrently(ResultsSink& sink, const std::vector<std::size_t>& order,
                       std::size_t producers) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < producers; ++t) {
    threads.emplace_back([&sink, &order, t, producers] {
      for (std::size_t k = t; k < order.size(); k += producers) {
        sink.push(order[k], std::to_string(order[k]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

std::vector<std::size_t> shuffled_indices(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

std::string numbered_lines(std::size_t n, std::size_t skip = SIZE_MAX) {
  std::string text;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != skip) text += std::to_string(i) + "\n";
  }
  return text;
}

// A string stream that flags overlapping writes (the sink lets one
// drainer write at a time) and yields inside each write to widen the
// window in which the sink has dropped its lock.
class ExclusiveStringBuf : public std::stringbuf {
 public:
  [[nodiscard]] bool overlapped() const { return overlapped_.load(); }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (writers_.fetch_add(1) != 0) overlapped_ = true;
    std::this_thread::yield();
    const std::streamsize written = std::stringbuf::xsputn(s, n);
    writers_.fetch_sub(1);
    return written;
  }

 private:
  std::atomic<int> writers_{0};
  std::atomic<bool> overlapped_{false};
};

TEST(ServeSink, ConcurrentProducersWriteInIndexOrder) {
  // Shuffled orders buffer deep; the ascending order has the producers
  // racing to push the next index while another one is writing.
  std::vector<std::vector<std::size_t>> orders;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    orders.push_back(shuffled_indices(3000, seed));
  }
  orders.emplace_back(20000);
  std::iota(orders.back().begin(), orders.back().end(), std::size_t{0});
  for (const std::vector<std::size_t>& order : orders) {
    ExclusiveStringBuf buffer;
    std::ostream out(&buffer);
    ResultsSink sink(out);
    push_concurrently(sink, order, 4);
    EXPECT_EQ(sink.close(), order.size());
    EXPECT_EQ(sink.gaps(), 0u);
    EXPECT_EQ(sink.write_failures(), 0u);
    EXPECT_FALSE(buffer.overlapped());
    EXPECT_EQ(buffer.str(), numbered_lines(order.size()));
  }
}

TEST(ServeSink, ChaosWriteFailureDropsTheSameIndexWithManyProducers) {
  // Chaos occurrences tick in index order whoever drains, so
  // sink-write-fail@k refuses record k at any producer count.
  for (const std::size_t k : {0u, 7u, 499u}) {
    for (const std::size_t producers : {1u, 3u, 6u}) {
      resil::chaos::configure("sink-write-fail@" + std::to_string(k));
      std::ostringstream out;
      ResultsSink sink(out);
      push_concurrently(sink, shuffled_indices(500, k + producers), producers);
      EXPECT_EQ(sink.close(), 500u);
      EXPECT_EQ(sink.write_failures(), 1u);
      resil::chaos::configure("");
      EXPECT_EQ(out.str(), numbered_lines(500, k))
          << "k " << k << ", " << producers << " producers";
    }
  }
}

TEST(ServeSink, CloseAfterConcurrentPushesFillsGapsOnTheCallingThread) {
  // Indices 10 and 11 never arrive (an abandoned chunk) and 190..199
  // are trailing: close() fills the interior holes only, and a push
  // after close is dropped.
  std::vector<std::size_t> order;
  for (const std::size_t i : shuffled_indices(190, 9)) {
    if (i != 10 && i != 11) order.push_back(i);
  }
  std::ostringstream out;
  ResultsSink sink(out);
  sink.set_gap_filler([](std::size_t index) {
    return "gap:" + std::to_string(index);
  });
  push_concurrently(sink, order, 5);
  EXPECT_EQ(sink.written(), 10u);  // the prefix below the first hole
  EXPECT_EQ(sink.close(), 190u);
  sink.push(190, "late");
  EXPECT_EQ(sink.close(), 190u);
  EXPECT_EQ(sink.gaps(), 2u);
  std::string expected = numbered_lines(10) + "gap:10\ngap:11\n";
  for (std::size_t i = 12; i < 190; ++i) expected += std::to_string(i) + "\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ServeSink, CloseRacingPushesKeepsOneWriterAndIndexOrder) {
  // close() lands while producers are still pushing (and one of them
  // may be mid-drain): every record that is written appears once, in
  // index order, with no overlapping stream writes; the rest are
  // dropped or gap-filled, never interleaved.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    ExclusiveStringBuf buffer;
    std::ostream out(&buffer);
    ResultsSink sink(out);
    sink.set_gap_filler([](std::size_t index) {
      return "gap:" + std::to_string(index);
    });
    const std::vector<std::size_t> order = shuffled_indices(4000, seed);
    std::thread closer([&sink, seed] {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * seed));
      sink.close();
    });
    push_concurrently(sink, order, 4);
    closer.join();
    EXPECT_FALSE(buffer.overlapped());
    std::istringstream lines(buffer.str());
    std::string line;
    std::size_t expected = 0;
    while (std::getline(lines, line)) {
      const std::string want = std::to_string(expected);
      EXPECT_TRUE(line == want || line == "gap:" + want)
          << "line " << expected << " reads '" << line << "'";
      ++expected;
    }
    EXPECT_EQ(sink.close(), expected);
    EXPECT_EQ(sink.written(), expected);
  }
}

// ---- batch runner -----------------------------------------------------

class ServeBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_path_ =
        testing_support::unique_temp_path("serve_batch_model.rasc");
    std::ofstream model(model_path_);
    model << "model test pair\n"
             "param La 0.002\n"
             "param Mu 0.5\n"
             "state Up reward 1\n"
             "state Down reward 0\n"
             "rate Up Down La\n"
             "rate Down Up Mu\n";
  }

  void TearDown() override { std::remove(model_path_.c_str()); }

  [[nodiscard]] std::string request_line(const char* extra = "") const {
    return std::string("{\"model\": \"") + model_path_ + "\"" + extra + "}";
  }

  std::string model_path_;
};

TEST_F(ServeBatchTest, MalformedLineBecomesErrorRecordNotAbort) {
  const std::vector<std::string> lines = {
      request_line(), "garbage", request_line(", \"id\": \"ok2\"")};
  std::ostringstream out;
  const BatchResult result = run_batch(lines, out, {});
  EXPECT_EQ(result.requests, 3u);
  EXPECT_EQ(result.succeeded, 2u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.written, 3u);

  std::istringstream records(out.str());
  std::string record;
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"index\":0,\"status\":\"ok\""), std::string::npos);
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"index\":1,\"status\":\"error\""),
            std::string::npos);
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"id\":\"ok2\",\"status\":\"ok\""),
            std::string::npos);
}

TEST_F(ServeBatchTest, UnknownModelBecomesErrorRecord) {
  const std::vector<std::string> lines = {
      "{\"model\": \"/nonexistent/void.rasc\"}", request_line()};
  std::ostringstream out;
  const BatchResult result = run_batch(lines, out, {});
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.succeeded, 1u);
  EXPECT_NE(out.str().find("\"status\":\"error\""), std::string::npos);
}

TEST_F(ServeBatchTest, OverrideReachingNothingIsAModelErrorRecord) {
  // A derived parameter moves with its base; a name the model does not
  // know, and a parameter nothing depends on, are refused in the serial
  // admission phase, so the bytes do not depend on the thread count.
  const std::string path =
      testing_support::unique_temp_path("serve_override_model.rasc");
  {
    std::ofstream model(path);
    model << "param La0 0.001\n"
             "param La La0*2\n"
             "param Mu 0.5\n"
             "param Spare 7\n"
             "state Up reward 1\n"
             "state Down reward 0\n"
             "rate Up Down La\n"
             "rate Down Up Mu\n";
  }
  const auto line = [&](const char* extra) {
    return std::string("{\"model\": \"") + path + "\"" + extra + "}";
  };
  const std::vector<std::string> lines = {
      line(""), line(", \"set\": {\"La0\": 0.01}"),
      line(", \"set\": {\"Nope\": 1}"),
      line(", \"set\": {\"Spare\": 1}"),
      line(", \"set\": {\"La\": 0.002}")};
  std::string first;
  for (const std::size_t threads : {1, 4}) {
    std::ostringstream out;
    BatchOptions options;
    options.threads = threads;
    const BatchResult result = run_batch(lines, out, options);
    EXPECT_EQ(result.succeeded, 3u);
    EXPECT_EQ(result.failed, 2u);
    if (first.empty()) first = out.str();
    EXPECT_EQ(out.str(), first);
  }
  std::istringstream records(first);
  std::vector<std::string> record(lines.size());
  for (std::string& r : record) ASSERT_TRUE(std::getline(records, r));
  // Default La = 0.002, so overriding La0 to 0.01 must change the
  // answer and overriding La to its own default must not.
  EXPECT_NE(record[0].substr(record[0].find("\"status\"")),
            record[1].substr(record[1].find("\"status\"")));
  EXPECT_EQ(record[0].substr(record[0].find("\"status\"")),
            record[4].substr(record[4].find("\"status\"")));
  for (const std::size_t i : {2, 3}) {
    EXPECT_NE(record[i].find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(record[i].find("\"class\":\"model\""), std::string::npos)
        << record[i];
  }
  EXPECT_NE(record[2].find("override 'Nope' names no parameter of the model"),
            std::string::npos);
  EXPECT_NE(record[3].find("override 'Spare' reaches no rate or reward"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ServeBatchTest, ColdAndWarmCacheBitIdentical) {
  // Ten requests over three distinct parameter points: the shared
  // cache must hit and the bytes must match a cache-disabled run.
  std::vector<std::string> lines;
  for (int i = 0; i < 10; ++i) {
    const char* sets[] = {", \"set\": {\"La\": 0.001}",
                          ", \"set\": {\"La\": 0.002}",
                          ", \"set\": {\"La\": 0.003}"};
    lines.push_back(request_line(sets[i % 3]));
  }

  std::ostringstream warm_out;
  BatchOptions warm;
  warm.cache_capacity = 64;
  const BatchResult warm_result = run_batch(lines, warm_out, warm);
  EXPECT_EQ(warm_result.succeeded, 10u);
  EXPECT_GT(warm_result.cache.hits + warm_result.worker_hits, 0u);
  EXPECT_GT(warm_result.hit_rate(), 0.0);

  std::ostringstream cold_out;
  BatchOptions cold;
  cold.cache_capacity = 0;  // shared tier off
  const BatchResult cold_result = run_batch(lines, cold_out, cold);
  EXPECT_EQ(cold_result.succeeded, 10u);
  EXPECT_EQ(cold_result.cache.hits, 0u);

  EXPECT_EQ(warm_out.str(), cold_out.str());
}

TEST_F(ServeBatchTest, ChecksumDigestCoversEveryLine) {
  const std::vector<std::string> a = {request_line(), request_line()};
  std::vector<std::string> b = a;
  b[1] += " ";
  EXPECT_NE(batch_checkpoint_digest(a), batch_checkpoint_digest(b));
}

TEST_F(ServeBatchTest, ChecksumDigestCoversSupervisionKnobs) {
  // Resuming under different retry or shedding rules would splice
  // incompatible record streams: every knob must change the digest.
  const std::vector<std::string> lines = {request_line()};
  const std::uint64_t base = batch_checkpoint_digest(lines);
  SupervisionOptions changed;
  changed.retry.max_attempts = 5;
  EXPECT_NE(batch_checkpoint_digest(lines, changed), base);
  changed = {};
  changed.fallback_ladder = false;
  EXPECT_NE(batch_checkpoint_digest(lines, changed), base);
  changed = {};
  changed.admission_states = 10;
  EXPECT_NE(batch_checkpoint_digest(lines, changed), base);
  changed = {};
  changed.queue_cap = 7;
  EXPECT_NE(batch_checkpoint_digest(lines, changed), base);
}

TEST_F(ServeBatchTest, AdmissionStateCapShedsWithDistinctRecords) {
  const std::vector<std::string> lines = {request_line(", \"id\": \"big\""),
                                          request_line()};
  std::ostringstream out;
  BatchOptions options;
  options.supervision.admission_states = 1;  // the pair model has 2
  const BatchResult result = run_batch(lines, out, options);
  EXPECT_EQ(result.shed, 2u);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.written, 2u);
  EXPECT_FALSE(result.lossy());
  std::istringstream records(out.str());
  std::string record;
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"id\":\"big\",\"status\":\"shed\""),
            std::string::npos)
      << record;
  EXPECT_NE(record.find("admission: model declares 2 states, cap is 1"),
            std::string::npos)
      << record;
}

TEST_F(ServeBatchTest, QueueCapShedsTailInIndexOrder) {
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i) lines.push_back(request_line());
  std::ostringstream out;
  BatchOptions options;
  options.supervision.queue_cap = 2;
  const BatchResult result = run_batch(lines, out, options);
  EXPECT_EQ(result.succeeded, 2u);
  EXPECT_EQ(result.shed, 2u);
  std::istringstream records(out.str());
  std::string record;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(std::getline(records, record));
    const char* expected = i < 2 ? "\"status\":\"ok\"" : "\"status\":\"shed\"";
    EXPECT_NE(record.find(expected), std::string::npos)
        << "index " << i << ": " << record;
    if (i >= 2) {
      EXPECT_NE(record.find("queue full: 2 requests already admitted"),
                std::string::npos)
          << record;
    }
  }
}

TEST_F(ServeBatchTest, TransientChaosFaultRecoversBitIdentically) {
  const std::vector<std::string> lines = {request_line(), request_line()};
  std::ostringstream clean_out;
  const BatchResult clean = run_batch(lines, clean_out, {});
  EXPECT_EQ(clean.succeeded, 2u);

  resil::chaos::configure("solver-fault@0");
  std::ostringstream faulted_out;
  const BatchResult faulted = run_batch(lines, faulted_out, {});
  resil::chaos::configure("");
  EXPECT_EQ(faulted.succeeded, 2u);
  EXPECT_EQ(faulted.failed, 0u);
  // A recovered transient is invisible in the stream: same bytes.
  EXPECT_EQ(faulted_out.str(), clean_out.str());
}

TEST_F(ServeBatchTest, ExhaustedRetriesBecomeClassifiedErrorRecords) {
  const std::vector<std::string> lines = {request_line(", \"id\": \"doomed\"")};
  // Default policy allows 3 attempts; arm a fault for each of them.
  resil::chaos::configure("solver-fault@0,solver-fault@1,solver-fault@2");
  std::ostringstream out;
  BatchOptions options;
  options.threads = 1;  // occurrence-keyed site: keep the order exact
  const BatchResult result = run_batch(lines, out, options);
  resil::chaos::configure("");
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_NE(out.str().find("\"id\":\"doomed\",\"status\":\"error\","
                           "\"class\":\"transient\""),
            std::string::npos)
      << out.str();
}

TEST_F(ServeBatchTest, AbandonedWorkerChunkIsGapFilledAndCounted) {
  const std::vector<std::string> lines = {request_line(), request_line()};
  resil::chaos::configure("worker-abandon@0");
  std::ostringstream out;
  BatchOptions options;
  options.threads = 2;  // index 0 and 1 land in different chunks
  const BatchResult result = run_batch(lines, out, options);
  resil::chaos::configure("");
  EXPECT_EQ(result.succeeded, 1u);
  EXPECT_EQ(result.gaps, 1u);
  EXPECT_EQ(result.lost, 1u);
  EXPECT_TRUE(result.lossy());
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.written, 2u);  // the gap record keeps the stream whole
  std::istringstream records(out.str());
  std::string record;
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"index\":0,\"status\":\"error\",\"class\":\"lost\""),
            std::string::npos)
      << record;
  ASSERT_TRUE(std::getline(records, record));
  EXPECT_NE(record.find("\"index\":1"), std::string::npos) << record;
  EXPECT_NE(record.find("\"status\":\"ok\""), std::string::npos) << record;
}

TEST_F(ServeBatchTest, HostileCorpusEveryRequestAccountedFor) {
  // Adversarial stream: none of these may abort the process, leak a
  // record, or stall the run — each line ends as exactly one record.
  std::vector<std::string> lines;
  lines.push_back(std::string(100000, '{'));            // deep nesting
  lines.push_back(std::string(10u << 20, 'x'));         // 10 MiB garbage
  lines.push_back(std::string("{\"model\": \"m\0.rasc\"}", 21));  // NUL
  lines.push_back("{\"model\": \"m.rasc\xC3");          // truncated UTF-8
  lines.push_back("{\"model\": \"a.rasc\", \"model\": \"b.rasc\"}");  // dup
  lines.push_back("{\"model\": \"" + std::string(1 << 20, 'a') + "\"}");
  lines.push_back(request_line(", \"id\": \"survivor\""));
  std::ostringstream out;
  const BatchResult result = run_batch(lines, out, {});
  EXPECT_EQ(result.requests, lines.size());
  EXPECT_EQ(result.succeeded + result.failed + result.shed, lines.size());
  EXPECT_EQ(result.succeeded, 1u);
  EXPECT_EQ(result.written, lines.size());
  EXPECT_FALSE(result.lossy());
  // Duplicate keys are rejected, not last-wins silently.
  EXPECT_NE(out.str().find("duplicate field"), std::string::npos);
  EXPECT_NE(out.str().find("\"id\":\"survivor\",\"status\":\"ok\""),
            std::string::npos);
  std::istringstream records(out.str());
  std::string record;
  std::size_t count = 0;
  while (std::getline(records, record)) ++count;
  EXPECT_EQ(count, lines.size());
}

TEST(ServeReadLines, KeepsBlankLinesAndStripsCr) {
  std::istringstream in("one\r\n\nthree");
  const std::vector<std::string> lines = read_request_lines(in);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "");
  EXPECT_EQ(lines[2], "three");
}

}  // namespace
}  // namespace rascal::serve
