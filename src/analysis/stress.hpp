// stress.hpp — drivers for the adversarial experiments E13 (convergence
// under an active fault plan) and E14 (crash recovery under the active
// failure detector).
//
// The e13-faults and e14-recovery sweep experiments (experiments.hpp) run
// them.  Everything is a pure function of the options (seeds included), so
// sweep cells replay byte-identically.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "sim/faults.hpp"
#include "sim/scheduler.hpp"

namespace sssw::obs {
class Registry;
}

namespace sssw::analysis {

/// E13: convergence from a random chain while one FaultPlan dimension (or
/// the oldest-last adversary) is live.
struct FaultSweepOptions {
  std::size_t n = 64;
  std::size_t trials = 4;
  std::uint64_t base_seed = 1;
  sim::FaultPlan faults{};
  sim::SchedulerKind scheduler = sim::SchedulerKind::kSynchronous;
  std::uint32_t adversary_delay = 3;
  core::Config protocol{};
  /// Round budget per trial; 0 = the theorem-shaped 400n + 4000 bound scaled
  /// by the latency the plan imposes (mirrors analysis::round_bound).
  std::size_t max_rounds = 0;
};

struct FaultSweepResult {
  double rounds = 0;     ///< mean rounds to the sorted ring over converged trials (-1 if none)
  double converged = 0;  ///< fraction of trials that converged in budget
  double survived = 0;   ///< fraction still weakly connected after the window
  double injected = 0;   ///< mean fault events injected per trial
};

/// The latency-scaled default budget for one E13 trial.
std::size_t fault_sweep_budget(const FaultSweepOptions& options);

FaultSweepResult measure_fault_convergence(const FaultSweepOptions& options);

/// E14: a crash_frac fraction of a stabilized, burned-in ring fail-stops at
/// once; survivors heal via the active probe/ack detector (mode kCrash) or
/// via detected leave() with no detector (mode kLeave, the §IV.G baseline).
struct RecoveryOptions {
  enum class Mode : std::uint8_t { kCrash, kLeave };

  std::size_t n = 64;
  std::size_t trials = 4;
  std::uint64_t base_seed = 1;
  double crash_frac = 0.1;
  double message_loss = 0.0;
  Mode mode = Mode::kCrash;
  core::Config protocol{};  ///< detector.enabled is forced by the mode
  /// Healing budget per trial; 0 = 400n + 4000 (doubled under loss).
  std::size_t max_rounds = 0;
};

struct RecoveryResult {
  double repair_rounds = 0;   ///< mean rounds to re-sorted ring (healed trials; -1 if none)
  double healed = 0;          ///< fraction healed within budget
  double survived = 0;        ///< fraction with weakly connected survivors
  double msgs_per_nr = 0;     ///< messages per surviving node per round
  double detector_share = 0;  ///< ping+pong fraction of that traffic
  double evictions = 0;       ///< mean detector evictions per trial
};

/// `registry`, when non-null, accumulates the per-trial node/engine metrics
/// (merged in trial order — deterministic); the sweep runner snapshots it
/// into the cell's metrics.jsonl.
RecoveryResult measure_crash_recovery(const RecoveryOptions& options,
                                      obs::Registry* registry = nullptr);

}  // namespace sssw::analysis
