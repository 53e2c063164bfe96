// traversal.hpp — weak connectivity primitives.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/digraph.hpp"

namespace sssw::graph {

/// Distance marker for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// True iff every vertex is reachable from every other ignoring edge
/// direction — the paper's "weakly connected" precondition.
bool is_weakly_connected(const Digraph& graph);

/// Weakly connected component label per vertex (labels are 0-based,
/// contiguous) plus the number of components.
struct Components {
  std::vector<std::uint32_t> label;
  std::size_t count = 0;
};

Components weak_components(const Digraph& graph);

/// Size of the largest weakly connected component (0 for the empty graph).
std::size_t largest_weak_component(const Digraph& graph);

/// Union-find over dense indices; used by the generators as well.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  std::uint32_t find(std::uint32_t x) noexcept;
  /// Returns true if x and y were in different sets (now merged).
  bool unite(std::uint32_t x, std::uint32_t y) noexcept;
  std::size_t set_count() const noexcept { return sets_; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t sets_;
};

}  // namespace sssw::graph
