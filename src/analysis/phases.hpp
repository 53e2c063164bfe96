// phases.hpp — a network's phase, observed round by round (the structure of
// §IV's proof).
//
// The correctness argument proceeds in phases: CC weakly connected → LCC
// weakly connected (Thm 4.3) → sorted list (Thm 4.9) → sorted ring
// (Thm 4.18) → small world (Thm 4.22).  E1b's driver (phases.cpp) records
// the first round at which each phase target holds, giving an empirical
// picture of where stabilization time is spent.
#pragma once

#include <cstdint>

#include "core/invariants.hpp"
#include "core/network.hpp"

namespace sssw::analysis {

/// A network's phase, observed once per round.  The rungs from the sorted
/// list upward are O(1) via the network's invariant tracker and are exact
/// at every call.  Below them the phase needs BFS connectivity (O(n+m)), so
/// the BFS ladder backs off exponentially: while its answer is unchanged it
/// reruns only every `stride` rounds, the stride doubling up to kStrideCap,
/// and the rounds in between report the last BFS answer.  A low-phase
/// answer is therefore at most kStrideCap − 1 rounds late.
class PhaseClassifier {
 public:
  static constexpr std::size_t kStrideCap = 64;

  /// The phase of `network` at `round`; rounds must not decrease between
  /// calls.
  core::Phase classify(const core::SmallWorldNetwork& network, std::uint64_t round);

 private:
  std::size_t stride_ = 1;
  std::uint64_t next_low_check_ = 0;
  core::Phase last_low_ = core::Phase::kDisconnected;
};

}  // namespace sssw::analysis
