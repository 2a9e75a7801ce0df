// Tarjan's strongly-connected-components algorithm over a generic
// directed graph (CSR adjacency), plus the condensation queries the
// structural lint checks need: which components are closed (no edges
// leaving them) and which vertices are reachable from a root.
//
// Graph-only on purpose — the ctmc library uses this for
// is_irreducible and the solvers' fail-fast validation, so it must
// not depend on ctmc types.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rascal::lint {

/// Directed graph in compressed-sparse-row form: the successors of
/// vertex v are targets[offsets[v] .. offsets[v + 1]), in the order
/// they were added.  Two flat arrays instead of one list per vertex,
/// so building it costs two allocations whatever the vertex count.
struct Adjacency {
  std::vector<std::size_t> offsets{0};  // vertex count + 1 entries
  std::vector<std::size_t> targets;

  /// Edge list (from, to) -> CSR by a stable counting sort: each
  /// vertex's successors keep their order in `edges`.  `key` picks
  /// the source of an edge and `value` its target, so the same pass
  /// builds the forward graph or its reverse.
  template <typename Range, typename Key, typename Value>
  static Adjacency from_edges(std::size_t vertices, const Range& edges,
                              Key key, Value value) {
    Adjacency out;
    out.offsets.assign(vertices + 1, 0);
    for (const auto& e : edges) ++out.offsets[key(e) + 1];
    for (std::size_t v = 0; v < vertices; ++v) {
      out.offsets[v + 1] += out.offsets[v];
    }
    out.targets.resize(out.offsets[vertices]);
    std::vector<std::size_t> next(out.offsets.begin(), out.offsets.end() - 1);
    for (const auto& e : edges) out.targets[next[key(e)]++] = value(e);
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets.size() - 1;
  }
  [[nodiscard]] std::span<const std::size_t> operator[](
      std::size_t v) const noexcept {
    return {targets.data() + offsets[v], offsets[v + 1] - offsets[v]};
  }
};

struct SccResult {
  /// Vertex -> component index.  Components are numbered in reverse
  /// topological order of the condensation (Tarjan's natural output):
  /// every edge between distinct components goes from a higher
  /// component index to a lower one.
  std::vector<std::size_t> component_of;
  /// Component index -> member vertices (ascending).
  std::vector<std::vector<std::size_t>> components;

  [[nodiscard]] std::size_t num_components() const noexcept {
    return components.size();
  }
};

/// Iterative Tarjan over `edges` (size = vertex count).  Edge targets
/// must be in range.
[[nodiscard]] SccResult tarjan_scc(const Adjacency& edges);

/// Per-component flag: true when no edge leaves the component (a
/// closed, i.e. recurrent/absorbing, class of the chain).
[[nodiscard]] std::vector<bool> closed_components(const Adjacency& edges,
                                                  const SccResult& scc);

/// Per-vertex flag: reachable from `root` following `edges`
/// (including `root` itself).
[[nodiscard]] std::vector<bool> reachable_from(const Adjacency& edges,
                                               std::size_t root);

}  // namespace rascal::lint
