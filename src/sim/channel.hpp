// channel.hpp — a node's incoming channel C (§II.B), as the random-async
// scheduler stores it.
//
// The channel has unbounded capacity, loses no messages, and does not
// preserve transmission order.  The random-async scheduler takes one
// uniformly random message per receive action and must see every send at
// once, so it keeps one vector per receiver: push appends, take swaps a
// random message with the last one and pops it.  The synchronous-family
// schedulers keep no per-receiver storage at all: their channels are the
// pending lists of the engine's receiver blocks, which each receive pass
// sorts by receiver (Engine, DESIGN.md §8).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/message.hpp"
#include "util/rng.hpp"

namespace sssw::sim {

class Channel {
 public:
  void push(const Message& message) { buf_.push_back(message); }

  bool empty() const noexcept { return buf_.empty(); }
  std::size_t size() const noexcept { return buf_.size(); }

  /// Removes and returns a uniformly random message (one `rng.below` draw);
  /// the channel must be non-empty.
  Message take(util::Rng& rng);

  void clear() noexcept { buf_.clear(); }

  /// Read-only view of the pending messages (graph-view extraction uses the
  /// "implicit links given by the messages in the channel" of Def. 4.2).
  std::span<const Message> pending() const noexcept { return buf_; }

  /// Removes every pending message that references `id` in any payload
  /// slot; returns how many were removed.  Used by fail-stop leave: the
  /// departed node's temporary (in-flight) links disappear with it.
  std::size_t purge_references(Id id);

 private:
  std::vector<Message> buf_;
};

}  // namespace sssw::sim
