#include "core/views.hpp"

#include <algorithm>

#include "core/messages.hpp"
#include "core/node.hpp"
#include "util/check.hpp"

namespace sssw::core {

using sim::Id;
using sim::is_node_id;

IdIndex::IdIndex(const sim::Engine& engine)
    : ids_(engine.id_span().begin(), engine.id_span().end()) {
  // Engine::id_span() is ascending already; assert rather than re-sort.
  SSSW_DCHECK(std::is_sorted(ids_.begin(), ids_.end()));
}

graph::Vertex IdIndex::vertex_of(Id id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  SSSW_CHECK_MSG(it != ids_.end() && *it == id, "identifier not in index");
  return static_cast<graph::Vertex>(it - ids_.begin());
}

bool IdIndex::contains(Id id) const noexcept {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  return it != ids_.end() && *it == id;
}

std::size_t IdIndex::ring_distance(Id a, Id b) const {
  const std::size_t ra = vertex_of(a);
  const std::size_t rb = vertex_of(b);
  const std::size_t direct = ra > rb ? ra - rb : rb - ra;
  return std::min(direct, ids_.size() - direct);
}

namespace {

/// Adds (owner → other) if both ends are live, distinct identifiers.  The
/// owner side matters too: after a crash-stop (no purge), the fault plan's
/// hold queue can still carry messages addressed to the dead node, and
/// for_each_pending reports them with the dead id as the channel owner.
void add_link(graph::Digraph& g, const IdIndex& index, Id owner, Id other) {
  if (!is_node_id(other) || other == owner) return;
  if (!index.contains(owner)) return;  // crashed destination: edge died with it
  if (!index.contains(other)) return;  // departed node: dangling link, no vertex
  g.add_edge_unique(index.vertex_of(owner), index.vertex_of(other));
}

}  // namespace

graph::Digraph extract_view(const sim::Engine& engine, const IdIndex& index,
                            const ViewSpec& spec) {
  graph::Digraph g(index.size());

  engine.for_each([&](const sim::Process& process) {
    const auto* node = as_node(&process);
    if (node == nullptr) return;
    const Id owner = node->id();
    if (spec.stored_list) {
      add_link(g, index, owner, node->l());
      add_link(g, index, owner, node->r());
    }
    if (spec.stored_ring && node->has_ring_edge()) {
      add_link(g, index, owner, node->ring());
    }
    if (spec.stored_lrl) {
      for (const SmallWorldNode::LongRangeLink& link : node->lrls())
        add_link(g, index, owner, link.target);
    }
  });

  if (spec.lin_messages || spec.ring_messages || spec.all_messages) {
    engine.for_each_pending([&](Id to, const sim::Message& message) {
      const bool include = spec.all_messages ||
                           (spec.lin_messages && message.type == kLin) ||
                           (spec.ring_messages && message.type == kRing);
      if (!include) return;
      add_link(g, index, to, message.id1);
      if (message.type == kReslrl) add_link(g, index, to, message.id2);
    });
  }
  return g;
}

graph::Digraph view_cc(const sim::Engine& engine, const IdIndex& index) {
  return extract_view(engine, index,
                      {.stored_list = true,
                       .stored_ring = true,
                       .stored_lrl = true,
                       .all_messages = true});
}

graph::Digraph view_cp(const sim::Engine& engine, const IdIndex& index) {
  return extract_view(engine, index,
                      {.stored_list = true, .stored_ring = true, .stored_lrl = true});
}

graph::Digraph view_lcc(const sim::Engine& engine, const IdIndex& index) {
  return extract_view(engine, index, {.stored_list = true, .lin_messages = true});
}

graph::Digraph view_lcp(const sim::Engine& engine, const IdIndex& index) {
  return extract_view(engine, index, {.stored_list = true});
}

graph::Digraph view_rcc(const sim::Engine& engine, const IdIndex& index) {
  return extract_view(engine, index,
                      {.stored_list = true,
                       .stored_ring = true,
                       .lin_messages = true,
                       .ring_messages = true});
}

graph::Digraph view_rcp(const sim::Engine& engine, const IdIndex& index) {
  return extract_view(engine, index, {.stored_list = true, .stored_ring = true});
}

}  // namespace sssw::core
