#include "core/snapshot.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace sssw::core {

using sim::Id;
using sim::kNegInf;
using sim::kPosInf;

namespace {

std::string id_to_text(Id id) {
  if (id == kNegInf) return "-inf";
  if (id == kPosInf) return "inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", id);  // hexfloat: exact round-trip
  return buf;
}

Id id_from_text(const std::string& text) {
  if (text == "-inf") return kNegInf;
  if (text == "inf") return kPosInf;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw std::runtime_error("snapshot: bad identifier '" + text + "'");
  return value;
}

}  // namespace

Snapshot take_snapshot(const SmallWorldNetwork& network, bool include_channels) {
  Snapshot snapshot;
  network.engine().for_each([&](const sim::Process& process) {
    const auto* node = as_node(&process);
    if (node == nullptr) return;
    snapshot.nodes.push_back({node->id(), node->l(), node->r(), node->lrl(),
                              node->ring(), node->age()});
  });
  if (include_channels) {
    network.engine().for_each_pending([&](Id to, const sim::Message& message) {
      snapshot.messages.push_back({to, message});
    });
  }
  return snapshot;
}

SmallWorldNetwork restore_snapshot(const Snapshot& snapshot, NetworkOptions options) {
  SmallWorldNetwork network(options);
  for (const Snapshot::NodeState& state : snapshot.nodes) {
    NodeInit init(state.id);
    init.l = state.l;
    init.r = state.r;
    init.lrl = state.lrl;
    init.ring = state.ring;
    network.add_node(init);
    network.node(state.id)->set_age(state.age);
  }
  for (const SnapshotMessage& pending : snapshot.messages)
    network.engine().inject(pending.to, pending.message);
  return network;
}

std::string to_text(const Snapshot& snapshot) {
  std::ostringstream out;
  out << "sssw-snapshot v2\n";
  for (const Snapshot::NodeState& node : snapshot.nodes) {
    out << "node " << id_to_text(node.id) << ' ' << id_to_text(node.l) << ' '
        << id_to_text(node.r) << ' ' << id_to_text(node.lrl) << ' '
        << id_to_text(node.ring) << ' ' << node.age << '\n';
  }
  for (const SnapshotMessage& pending : snapshot.messages) {
    out << "msg " << id_to_text(pending.to) << ' '
        << static_cast<int>(pending.message.type) << ' '
        << id_to_text(pending.message.id1) << ' ' << id_to_text(pending.message.id2)
        << ' ' << id_to_text(pending.message.id3) << '\n';
  }
  return out.str();
}

Snapshot from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "sssw-snapshot v2")
    throw std::runtime_error("snapshot: missing or unknown header");

  Snapshot snapshot;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "node") {
      std::string id, l, r, lrl, ring;
      Age age = 0;
      if (!(fields >> id >> l >> r >> lrl >> ring >> age))
        throw std::runtime_error("snapshot: malformed node line: " + line);
      snapshot.nodes.push_back({id_from_text(id), id_from_text(l), id_from_text(r),
                                id_from_text(lrl), id_from_text(ring), age});
    } else if (kind == "msg") {
      std::string to, id1, id2, id3;
      int type = 0;
      if (!(fields >> to >> type >> id1 >> id2 >> id3))
        throw std::runtime_error("snapshot: malformed msg line: " + line);
      if (type < 0 || type >= static_cast<int>(sim::kMaxMessageTypes))
        throw std::runtime_error("snapshot: message type out of range: " + line);
      snapshot.messages.push_back(
          {id_from_text(to), sim::Message{static_cast<sim::MessageType>(type),
                                          id_from_text(id1), id_from_text(id2),
                                          id_from_text(id3)}});
    } else {
      throw std::runtime_error("snapshot: unknown record '" + kind + "'");
    }
  }
  return snapshot;
}

}  // namespace sssw::core
