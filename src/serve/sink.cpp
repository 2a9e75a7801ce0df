#include "serve/sink.h"

#include <thread>
#include <utility>

#include "obs/obs.h"
#include "resil/chaos.h"

namespace rascal::serve {

ResultsSink::ResultsSink(std::ostream& out) : out_(out) {}

ResultsSink::~ResultsSink() { close(); }

void ResultsSink::set_gap_filler(GapFiller filler) {
  std::lock_guard<std::mutex> lock(mutex_);
  gap_filler_ = std::move(filler);
}

void ResultsSink::push(std::size_t index, std::string line) {
  std::unique_lock<std::mutex> lock(mutex_);
  // A late completion after close() (the checkpoint has it) or an
  // index already written: nothing to emit.
  if (closed_ || index < next_index_) return;
  pending_.emplace(index, std::move(line));
  if (obs::enabled()) {
    obs::gauge("serve.sink.buffered").set(static_cast<double>(pending_.size()));
  }
  // Mid-drain, the drainer re-checks the next index after its write.
  if (index == next_index_ && !draining_) drain(lock);
}

std::size_t ResultsSink::close() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return written_;
  closed_ = true;  // from here on push() drops its record
  // A push racing close may still be draining; let it finish so the
  // stream keeps one writer at a time.
  while (draining_) {
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
  drain(lock);
  while (!pending_.empty()) {
    // Interior gap: a buffered record sits above an index nobody ever
    // pushed.  Fill the hole so every request up to the highest
    // completed one is accounted for, then drain what it unblocked.
    ++gaps_;
    if (obs::enabled()) obs::counter("serve.sink.gap_records").add(1);
    if (gap_filler_) {
      write_line(lock, gap_filler_(next_index_));
    } else {
      ++next_index_;  // historic behaviour: count, emit nothing
    }
    drain(lock);
  }
  out_.flush();
  return written_;
}

std::size_t ResultsSink::written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_;
}

std::size_t ResultsSink::gaps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gaps_;
}

std::size_t ResultsSink::write_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_failures_;
}

void ResultsSink::drain(std::unique_lock<std::mutex>& lock) {
  draining_ = true;
  while (!pending_.empty() && pending_.begin()->first == next_index_) {
    const std::string line = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    write_line(lock, line);
  }
  draining_ = false;
}

void ResultsSink::write_line(std::unique_lock<std::mutex>& lock,
                             const std::string& line) {
  // Records reach here in index order, so chaos occurrences map to the
  // same record at any RASCAL_THREADS.  The index is claimed before
  // the lock drops, so a push of it meanwhile is rejected as written.
  ++next_index_;
  bool failed =
      resil::chaos::enabled() && resil::chaos::tick("sink-write-fail");
  if (!failed) {
    lock.unlock();
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
    failed = !out_.put('\n');
    lock.lock();
  }
  ++written_;
  if (failed) {
    ++write_failures_;
    if (obs::enabled()) obs::counter("serve.sink.write_failures").add(1);
  }
  if (obs::enabled()) {
    obs::counter("serve.sink.records").add(1);
    obs::gauge("serve.sink.buffered").set(static_cast<double>(pending_.size()));
  }
}

}  // namespace rascal::serve
