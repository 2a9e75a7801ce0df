// Structured results sink for batch/serve campaigns.
//
// Workers finish requests in whatever order the pool schedules them,
// but the sink must emit records in request order so the output file
// is byte-identical at any RASCAL_THREADS and diffable across runs.
// Out-of-order completions wait in a map keyed by index.  There is no
// writer thread: the producer whose push completes the contiguous
// prefix drains it itself, one drainer at a time, with the lock dropped
// around each stream write (a record pushed meanwhile is picked up when
// the drainer re-checks).
//
// The sink never reads clocks or randomness, so sink activity can
// never perturb solver determinism.
//
// Accounting contract: the sink never loses a record silently.  A
// record gapped at close (a dead worker never pushed the index that
// would unblock the prefix) is filled with a structured error record
// from the gap filler and counted in gaps(); a record the stream
// refused to take is counted in write_failures().  Callers surface
// both in the run summary and the exit code.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

namespace rascal::serve {

class ResultsSink {
 public:
  /// The sink appends to `out` (not owned; must outlive the sink)
  /// from whichever thread drains until close() — no other writer may
  /// touch the stream in between.
  explicit ResultsSink(std::ostream& out);

  ~ResultsSink();  // close()s if the owner forgot to

  ResultsSink(const ResultsSink&) = delete;
  ResultsSink& operator=(const ResultsSink&) = delete;

  /// Renders the substitute record for an index whose real record
  /// never arrived.  Called at close, in index order, once per gap.
  using GapFiller = std::function<std::string(std::size_t index)>;

  /// Installs the gap filler.  Without one, gapped records are still
  /// counted in gaps() but nothing is emitted for them (the historic
  /// drop behaviour).  Call before any gap can occur — i.e. before
  /// close().
  void set_gap_filler(GapFiller filler);

  /// Hands record `index` to the sink; if it completes the contiguous
  /// prefix, the calling thread writes that prefix before returning.
  /// Thread-safe; each index must be pushed at most once.  `line`
  /// must not contain newlines (one record per line is the JSONL
  /// contract).  Pushes after close() are dropped.
  void push(std::size_t index, std::string line);

  /// Drains the contiguous prefix, fills any interior gaps via the
  /// gap filler (an index below a buffered record that no worker ever
  /// pushed — a dead or abandoned worker), and flushes the stream, on
  /// the calling thread.  A push() racing close() is either written
  /// (close waits for a drain in progress) or dropped.  Trailing
  /// never-pushed indices are not gaps: an interrupted run legitimately
  /// stops early and the checkpoint covers the rest.  Returns the
  /// number of records written (gap records included).
  std::size_t close();

  /// Records written so far (monotonic; final after close()).
  [[nodiscard]] std::size_t written() const;

  /// Interior gaps discovered at close (0 before close()).
  [[nodiscard]] std::size_t gaps() const;

  /// Records the output stream refused (stream entered a failed state
  /// or a `sink-write-fail` chaos site fired).  The stream position
  /// still advances so later records keep their indices.
  [[nodiscard]] std::size_t write_failures() const;

 private:
  // Writes records while the next index is buffered; one drainer at a time.
  void drain(std::unique_lock<std::mutex>& lock);
  // Writes one line as record next_index_, dropping the lock around
  // the stream operation.  Returns with the lock re-held.
  void write_line(std::unique_lock<std::mutex>& lock,
                  const std::string& line);

  std::ostream& out_;
  mutable std::mutex mutex_;
  std::map<std::size_t, std::string> pending_;  // records not yet written
  std::size_t next_index_ = 0;  // the only index allowed to write next
  std::size_t written_ = 0;
  std::size_t gaps_ = 0;
  std::size_t write_failures_ = 0;
  GapFiller gap_filler_;
  bool draining_ = false;
  bool closed_ = false;
};

}  // namespace rascal::serve
