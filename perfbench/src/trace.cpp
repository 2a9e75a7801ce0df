#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::uint64_t next_id = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_op{1};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_op = 0;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->index = static_cast<std::uint32_t>(g_buffers.size() - 1);
    t_buffer->spans.reserve(1 << 14);
  }
  return *t_buffer;
}

}  // namespace

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void enable_tracing() { g_enabled.store(true); }

Span::Span(const char* name, bool probe) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buf = buffer();
  active_ = true;
  record_.name = name;
  // Thread index in the high bits keeps ids unique without a shared
  // counter on the record path.
  record_.id = (static_cast<std::uint64_t>(buf.index + 1) << 40) |
               ++buf.next_id;
  record_.parent = t_parent;
  record_.op = probe ? 0 : t_op;
  record_.thread = buf.index;
  record_.probe = probe;
  saved_parent_ = t_parent;
  t_parent = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  t_parent = saved_parent_;
  buffer().spans.push_back(record_);
}

ParentScope::ParentScope(std::uint64_t parent, std::uint64_t op)
    : saved_parent_(t_parent), saved_op_(t_op) {
  t_parent = parent;
  t_op = op;
}

ParentScope::~ParentScope() {
  t_parent = saved_parent_;
  t_op = saved_op_;
}

std::uint64_t begin_op() {
  t_op = g_next_op.fetch_add(1);
  return t_op;
}

std::size_t span_count() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::size_t count = 0;
  for (const auto& buf : g_buffers) count += buf->spans.size();
  return count;
}

std::vector<SpanRecord> collect_spans() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<SpanRecord> out;
  for (const auto& buf : g_buffers) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Children may run concurrently on several threads, so the covered
    // time is the union of their intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, reach);
      const std::int64_t hi = std::min(end, spans[i].end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered) /
              1e3;
  }
  return self;
}

bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times_us(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                 "\"thread\":%u,\"probe\":%s,\"start_us\":%.3f,"
                 "\"dur_us\":%.3f,\"self_us\":%.3f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread,
                 s.probe ? "true" : "false",
                 static_cast<double>(s.start_ns) / 1e3, s.duration_us(),
                 self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
