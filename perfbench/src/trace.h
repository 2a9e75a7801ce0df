// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around calls
// into the library's public functions, so the library is measured
// from outside and never changes behaviour under tracing.  Each
// thread appends to its own buffer (no lock on the record path);
// buffers outlive their threads and are merged when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

struct SpanRecord {
  const char* name = "";      // static string: the layer's metric stem
  std::uint64_t id = 0;       // unique per run, never 0
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t op = 0;       // op the span belongs to (0 for probes)
  std::uint32_t thread = 0;   // recorder-assigned thread index
  bool probe = false;         // recorded by a labelled probe, not an op
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// Turns recording on for the rest of the process (the untraced run
/// never enables it, so its Span objects only read one flag).
void enable_tracing();

/// RAII span: starts at construction, ends at destruction.  Its
/// parent is the innermost open span of the calling thread, or the
/// span handed over with ParentScope on a worker thread.
class Span {
 public:
  explicit Span(const char* name, bool probe = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  std::uint64_t saved_parent_ = 0;
  bool active_ = false;
};

/// Makes `parent` (and its op) the current span of this thread for
/// the scope's lifetime: how a worker thread's spans attach to the
/// op span opened on the thread that dispatched the work.
class ParentScope {
 public:
  ParentScope(std::uint64_t parent, std::uint64_t op);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  std::uint64_t saved_parent_;
  std::uint64_t saved_op_;
};

/// Starts a new op: spans opened on this thread until the next call
/// carry the returned op id.
std::uint64_t begin_op();

/// Number of spans recorded so far.
[[nodiscard]] std::size_t span_count();

/// Every span recorded so far, in (thread, record) order.
[[nodiscard]] std::vector<SpanRecord> collect_spans();

/// Self time of each span in microseconds, aligned with `spans`:
/// duration minus the union of its children's intervals.
[[nodiscard]] std::vector<double> self_times_us(
    const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span (name, ids, thread, start, duration,
/// self time, probe flag).  Returns false when the file cannot be
/// written.
bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
