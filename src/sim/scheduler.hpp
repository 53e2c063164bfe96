// scheduler.hpp — scheduling policies for the engine.
//
// The paper's model only requires weak fairness of action execution and fair
// message receipt.  The engine offers three schedules that all satisfy those
// requirements (and one, adversarial LIFO, that stresses them):
//
//  * kSynchronous — rounds; in each round every node receives everything that
//    was in its channel at round start and then executes its regular action.
//    This is the unit in which the paper counts "rounds"/"steps".
//  * kRandomAsync — one atomic action at a time, chosen uniformly among all
//    enabled actions (all pending deliveries + every node's regular action).
//    Weak fairness holds with probability 1.
//  * kAdversarialLifo — rounds, but channels drain newest-first and nodes
//    execute in a fixed order: a deterministic adversarial-ish schedule.
//  * kDelayedRandom — rounds, but each pending message is delivered this
//    round only with probability 1/2 (slow, unordered channels).  Fair
//    receipt still holds with probability 1.
//  * kAdversarialOldestLast — the starvation-bounded adversary: every
//    message is held to its fairness deadline (EngineConfig::adversary_delay
//    extra rounds) before it becomes deliverable, then channels drain
//    newest-first in a fixed node order.  The most hostile schedule that
//    still meets a per-message delivery deadline, i.e. still weakly fair.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace sssw::sim {

enum class SchedulerKind : std::uint8_t {
  kSynchronous,
  kRandomAsync,
  kAdversarialLifo,
  kDelayedRandom,
  kAdversarialOldestLast,
};

inline constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kSynchronous,    SchedulerKind::kRandomAsync,
    SchedulerKind::kAdversarialLifo, SchedulerKind::kDelayedRandom,
    SchedulerKind::kAdversarialOldestLast,
};

/// The order in which a synchronous-family receiver gets its round's batch.
enum class ReceiptOrder : std::uint8_t {
  kShuffled,  ///< uniformly random order (the paper's fair receipt)
  kLifo,      ///< newest first (adversarial)
};

const char* to_string(SchedulerKind kind) noexcept;
/// Inverse of to_string; nullopt for an unknown name.
std::optional<SchedulerKind> scheduler_from_string(std::string_view name) noexcept;

}  // namespace sssw::sim
