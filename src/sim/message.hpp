// message.hpp — the wire format of the simulated message-passing system.
//
// A message is "a set of identifiers ... and a type" (§II.A).  Two identifier
// slots suffice for every message in the paper (only reslrl uses both).
#pragma once

#include <cstdint>

#include "sim/id.hpp"

namespace sssw::sim {

/// Protocol-defined message type code.  The engine treats it as opaque; it
/// only uses it for per-type statistics.  Values must be < kMaxMessageTypes.
using MessageType = std::uint8_t;

inline constexpr std::size_t kMaxMessageTypes = 16;

struct Message {
  MessageType type = 0;
  Id id1 = kNegInf;  ///< primary identifier payload (m.id in the paper)
  Id id2 = kPosInf;  ///< secondary payload, used by reslrl(id1, id2)
  /// Optional third identifier ("a message contains a set of identifiers",
  /// §II.A).  Used by the multi-long-range-link extension: reslrl carries
  /// the responder's own id so the origin can match the response to the
  /// right link.  kNegInf when unused.
  Id id3 = kNegInf;
};

/// True when `message` carries `id` in any payload slot: the in-flight link
/// that a fail-stop leave erases (Engine::remove_process).
inline bool references(const Message& message, Id id) noexcept {
  return message.id1 == id || message.id2 == id || message.id3 == id;
}

}  // namespace sssw::sim
