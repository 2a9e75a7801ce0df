// Memoized steady-state solving for batch drivers.
//
// Hierarchical models solve the same bound chain more than once per
// sample (e.g. the availability metric and the downtime attribution
// both need the root distribution), and batched drivers often sweep
// parameters that leave some submodel generators untouched.  A
// SolveCache keys the most recent solve by the chain's exact identity
// and returns the stored distribution on a match instead of
// re-running the factorisation.  A chain bound from a compiled model
// (compiled.h) is identified by its model id and the bits of the
// parameter slots its rates read (Ctmc::bind_key), so a hit costs no
// pass over the transitions and skips validation; any other chain by
// a digest of its generator (state count plus every transition's
// endpoints and rate bit pattern, via resil::DigestBuilder).
// Because the solvers are deterministic, a cache hit is bit-identical
// to a fresh solve — gated by the src/check/ oracle.
//
// Two tiers share one key scheme (steady_state_key):
//
//   * SolveCache — worker-local, single entry, also owns the worker's
//     SolveWorkspace.  Not thread-safe; give each worker its own.
//   * SharedSolveCache — process-wide, sharded, fixed-memory
//     concurrent table (transposition-table idiom: every key maps to
//     exactly one slot, colliding inserts evict).  Attach one to many
//     SolveCaches via set_shared() and a parametric sweep dispatched
//     across workers never recomputes an identical CTMC.  Hits return
//     byte-exact copies of the stored distribution, so results stay
//     bit-identical across thread counts and cold/warm caches (also
//     oracle-gated, check_shared_cache_consensus).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "ctmc/steady_state.h"

namespace rascal::ctmc {

/// Exact key of a steady-state solve: the chain's identity plus every
/// SolveControl field that can change the computed bits (method,
/// validation, max_iterations, escalate, sparse_threshold, precond,
/// gmres_restart).  A chain bound from a compiled model is identified
/// by its Ctmc::bind_key (model id + parameter-slot bits); any other
/// chain by the generator digest.  The cancellation token and workspace pointer are
/// excluded: they never change the solution.  Two solves with equal
/// keys are bit-identical; the property suite asserts every field
/// (and every transition rate) discriminates.
[[nodiscard]] std::uint64_t steady_state_key(const Ctmc& chain,
                                             SteadyStateMethod method,
                                             Validation validation,
                                             const SolveControl& control);

/// Process-wide concurrent solve cache: a fixed number of slots split
/// across mutex-guarded shards.  Each key owns exactly one slot
/// (multiplicative hash), so memory is bounded by `capacity` stored
/// distributions and an insert colliding with a live different-key
/// slot evicts it (counted).  Lookups copy the stored SteadyState out
/// under the shard lock, so a returned value is never touched by a
/// concurrent eviction.
class SharedSolveCache {
 public:
  struct Config {
    /// Total slot count across all shards (0 disables the cache:
    /// lookups miss, inserts drop).  Bounds resident results.
    std::size_t capacity = 1024;
    /// Shard count (rounded up to a power of two, capped by
    /// capacity).  One mutex per shard keeps workers out of each
    /// other's way.
    std::size_t shards = 16;
  };

  /// Point-in-time statistics.  Counters are cumulative over the
  /// cache lifetime; occupancy/evictions reflect slot state.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t occupancy = 0;  // live slots
    std::size_t capacity = 0;   // total slots
  };

  SharedSolveCache() : SharedSolveCache(Config{}) {}
  explicit SharedSolveCache(const Config& config);

  /// True when the cache has at least one slot.
  [[nodiscard]] bool enabled() const noexcept { return !shards_.empty(); }

  /// On a key match copies the stored solution into `out` and returns
  /// true; otherwise leaves `out` untouched.
  [[nodiscard]] bool lookup(std::uint64_t key, SteadyState& out) const;

  /// Stores `value` in the key's slot, evicting whatever different
  /// key lived there.  Re-inserting an existing key refreshes it.
  void insert(std::uint64_t key, const SteadyState& value);

  [[nodiscard]] Stats stats() const;

  /// Drops every stored entry (slots keep their memory reserved).
  void clear();

 private:
  struct Slot {
    bool used = false;
    std::uint64_t key = 0;
    SteadyState value;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Slot> slots;
    std::size_t used = 0;
  };

  // 64-bit multiplicative spread of the FNV key: the low bits pick
  // the shard, the high bits the slot, so both stay well mixed even
  // for keys that differ in few bits.
  [[nodiscard]] std::size_t shard_index(std::uint64_t key) const noexcept;
  [[nodiscard]] std::size_t slot_index(std::uint64_t key) const noexcept;

  std::vector<Shard> shards_;
  std::size_t slots_per_shard_ = 0;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

class SolveCache {
 public:
  /// The reusable scratch threaded into every cached solve.
  [[nodiscard]] linalg::SolveWorkspace& workspace() noexcept {
    return workspace_;
  }

  /// Attaches a cross-worker shared tier: consulted when the local
  /// entry misses, published to after every fresh solve.  Not owned;
  /// pass nullptr to detach.  The shared tier never changes results —
  /// its entries were produced by the identical deterministic solve.
  void set_shared(SharedSolveCache* shared) noexcept { shared_ = shared; }

  /// As solve_steady_state(), but returns the stored result when the
  /// chain's generator, the method, and the control knobs that affect
  /// the numerics (max_iterations, escalate, validation) match the
  /// previous call.  The cancellation token and workspace pointer are
  /// excluded from the key: they never change the solution.
  const SteadyState& steady_state(
      const Ctmc& chain, SteadyStateMethod method = SteadyStateMethod::kGth,
      Validation validation = Validation::kOn, SolveControl control = {});

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  /// Drops the stored solve (the workspace keeps its capacity).
  void invalidate() noexcept { valid_ = false; }

  /// Exact structural digest of a chain's generator: state count plus
  /// (from, to, rate-bits) of every merged transition.
  [[nodiscard]] static std::uint64_t generator_digest(const Ctmc& chain);

 private:
  linalg::SolveWorkspace workspace_;
  SharedSolveCache* shared_ = nullptr;  // optional cross-worker tier
  SteadyState cached_;
  std::uint64_t key_ = 0;
  bool valid_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace rascal::ctmc
