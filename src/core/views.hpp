// views.hpp — the connectivity graphs of Definition 4.2.
//
//   CC   channel connectivity: all stored links (l, r, ring, lrl) plus the
//        implicit links carried by every message in every channel.
//   CP   node connectivity: stored links only.
//   LCC  list channel connectivity: stored l/r plus lin messages.
//   LCP  list node connectivity: stored l/r only.
//   RCC  ring channel connectivity: LCC + stored ring edges + ring messages.
//   RCP  ring node connectivity: LCP + stored ring edges.
//
// Each extractor snapshots the engine into a graph::Digraph over dense
// vertex indices; `IdIndex` maps identifiers to indices (ascending order, so
// index == rank in the sorted ring).
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "sim/engine.hpp"

namespace sssw::core {

/// Bidirectional identifier ↔ dense-index mapping (indices are id ranks).
class IdIndex {
 public:
  explicit IdIndex(const sim::Engine& engine);

  std::size_t size() const noexcept { return ids_.size(); }
  /// Rank of `id`; id must be a registered process identifier.
  graph::Vertex vertex_of(sim::Id id) const;
  bool contains(sim::Id id) const noexcept;
  const std::vector<sim::Id>& ids() const noexcept { return ids_; }

  /// Ring distance in ranks: min(|ra−rb|, n−|ra−rb|).
  std::size_t ring_distance(sim::Id a, sim::Id b) const;

 private:
  std::vector<sim::Id> ids_;  // ascending
};

/// Which edge classes to include when extracting a view.
struct ViewSpec {
  bool stored_list = false;   // p.l, p.r
  bool stored_ring = false;   // p.ring (only when l = −∞ or r = ∞)
  bool stored_lrl = false;    // p.lrl
  bool lin_messages = false;  // channel msgs of type lin
  bool ring_messages = false; // channel msgs of type ring
  bool all_messages = false;  // every channel message's identifier payloads
};

graph::Digraph extract_view(const sim::Engine& engine, const IdIndex& index,
                            const ViewSpec& spec);

// Named views of Definition 4.2.
graph::Digraph view_cc(const sim::Engine& engine, const IdIndex& index);
graph::Digraph view_cp(const sim::Engine& engine, const IdIndex& index);
graph::Digraph view_lcc(const sim::Engine& engine, const IdIndex& index);
graph::Digraph view_lcp(const sim::Engine& engine, const IdIndex& index);
graph::Digraph view_rcc(const sim::Engine& engine, const IdIndex& index);
graph::Digraph view_rcp(const sim::Engine& engine, const IdIndex& index);

}  // namespace sssw::core
