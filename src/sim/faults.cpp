#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sssw::sim {

std::string FaultPlan::check() const {
  const auto is_probability = [](double p) { return p >= 0.0 && p < 1.0; };
  if (!is_probability(duplicate_probability))
    return "FaultPlan::duplicate_probability must lie in [0, 1)";
  if (!is_probability(delay_probability))
    return "FaultPlan::delay_probability must lie in [0, 1)";
  if (!is_probability(replay_probability))
    return "FaultPlan::replay_probability must lie in [0, 1)";
  if (delay_probability > 0.0 && max_delay_rounds < 1)
    return "FaultPlan::max_delay_rounds must be >= 1 when delay is on";
  if (replay_probability > 0.0 && replay_history < 1)
    return "FaultPlan::replay_history must be >= 1 when replay is on";
  if (partition_rounds > 0 && !std::isfinite(partition_pivot))
    return "FaultPlan::partition_pivot must be finite";
  return "";
}

void FaultPlan::validate() const {
  const std::string problem = check();
  SSSW_CHECK_MSG(problem.empty(), problem.c_str());
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint32_t fixed_delay)
    : plan_(plan), fixed_delay_(fixed_delay) {
  plan_.validate();
  if (plan_.replay_history > 0) history_.reserve(plan_.replay_history);
}

bool FaultInjector::partition_crosses(Id from, Id to,
                                      std::uint64_t round) const noexcept {
  if (plan_.partition_rounds == 0 || !is_node_id(from)) return false;
  if (round < plan_.partition_start ||
      round >= plan_.partition_start + plan_.partition_rounds)
    return false;
  return (from < plan_.partition_pivot) != (to < plan_.partition_pivot);
}

FaultInjector::SendDecision FaultInjector::on_send(Id from, Id to,
                                                   const Message& message,
                                                   std::uint64_t round,
                                                   util::Rng& rng) {
  SendDecision decision;

  // The draw order below is fixed and every draw is gated on its dimension
  // being switched on — the determinism contract of doc/FAULTS.md.
  if (partition_crosses(from, to, round)) {
    decision.partition_dropped = true;
  } else {
    decision.deliver_now = true;
    if (plan_.duplicate_probability > 0.0 &&
        rng.bernoulli(plan_.duplicate_probability))
      decision.duplicated = true;
    // Each surviving copy draws its own delay, so a duplicated message can
    // arrive split across rounds (the classic at-least-once reordering).
    const auto maybe_hold = [&](bool& deliver_flag) {
      std::uint64_t extra = fixed_delay_;
      if (plan_.delay_probability > 0.0 && rng.bernoulli(plan_.delay_probability))
        extra += 1 + rng.below(plan_.max_delay_rounds);
      if (extra == 0) return;
      // A message sent during round r sits in its channel at the end of r
      // and is drained in round r+1 (release when the counter reads r).
      // `extra` shifts that release point.
      held_.push_back(Held{round + extra, to, message});
      ++decision.held;
      deliver_flag = false;
    };
    maybe_hold(decision.deliver_now);
    if (decision.duplicated) {
      decision.duplicate_now = true;
      maybe_hold(decision.duplicate_now);
    }
  }

  if (plan_.replay_history > 0) {
    // Record then maybe replay, so a message can replay itself — the
    // tightest duplicate-at-a-distance.
    if (history_.size() < plan_.replay_history) {
      history_.push_back(Held{0, to, message});
    } else {
      history_[history_next_] = Held{0, to, message};
      history_next_ = (history_next_ + 1) % plan_.replay_history;
    }
    if (plan_.replay_probability > 0.0 &&
        rng.bernoulli(plan_.replay_probability)) {
      const Held& past = history_[rng.below(history_.size())];
      decision.has_replay = true;
      decision.replay_to = past.to;
      decision.replay_message = past.message;
    }
  }
  return decision;
}

void FaultInjector::collect_due(std::uint64_t round_counter,
                                std::vector<Held>& out) {
  out.clear();
  if (held_.empty()) return;
  std::size_t kept = 0;
  for (Held& held : held_) {
    if (held.due <= round_counter) {
      out.push_back(held);
    } else {
      held_[kept++] = held;
    }
  }
  held_.resize(kept);
}

std::size_t FaultInjector::purge_references(Id id) {
  const auto involves = [id](const Held& held) {
    return held.to == id || references(held.message, id);
  };
  const std::size_t before = held_.size();
  std::erase_if(held_, involves);
  // History entries mentioning the departed node must go too, or a later
  // replay would resurrect a reference that fail-stop semantics already
  // erased.
  // Compacting the ring buffer reorders nothing that matters: replay picks
  // uniformly, and the buffer refills in append order before overwriting.
  std::erase_if(history_, involves);
  history_next_ = 0;
  return before - held_.size();
}

}  // namespace sssw::sim
