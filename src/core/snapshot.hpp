// snapshot.hpp — serialize / restore a network's protocol state.
//
// A snapshot captures every node's internal variables (id, l, r, lrl, ring,
// age) and, optionally, the pending channel contents — enough to checkpoint
// a long experiment or ship a reproducer for a curious state.  The format is
// a line-oriented text format (one node or message per line) that diffs and
// versions cleanly:
//
//   sssw-snapshot v2
//   node <id> <l> <r> <lrl> <ring> <age>
//   msg <to> <type> <id1> <id2> <id3>
//
// (v1 wrote no id3, so pong responders, lookup tokens and multi-link reslrl
// responders came back as -inf; v1 files are rejected.)
//
// Identifiers serialize with full double precision via hexfloat; ±∞ are the
// literals `-inf` / `inf`.  Nodes running the multi-link extension
// (Config::lrl_count > 1) snapshot only their first long-range link; the
// extra links restart at home on restore (they re-mix within O(n) rounds).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/network.hpp"

namespace sssw::core {

struct SnapshotMessage {
  sim::Id to;
  sim::Message message;
};

struct Snapshot {
  struct NodeState {
    sim::Id id;
    sim::Id l;
    sim::Id r;
    sim::Id lrl;
    sim::Id ring;
    Age age = 0;
  };
  std::vector<NodeState> nodes;
  std::vector<SnapshotMessage> messages;
};

/// Captures the current protocol state; `include_channels` also records all
/// pending messages.
Snapshot take_snapshot(const SmallWorldNetwork& network, bool include_channels = true);

/// Rebuilds a network from a snapshot (node ages are restored via the
/// documented test/fault-injection mutators; channels are re-injected).
SmallWorldNetwork restore_snapshot(const Snapshot& snapshot,
                                   NetworkOptions options = {});

/// Text round-trip.
std::string to_text(const Snapshot& snapshot);
/// Parses the text format; throws std::runtime_error on malformed input.
Snapshot from_text(const std::string& text);

}  // namespace sssw::core
