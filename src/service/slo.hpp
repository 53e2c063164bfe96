// slo.hpp — E15 driver: lookup SLO during crash recovery.
//
// The question behind E15: when crash_frac of a stabilized ring fail-stops
// at once, what happens to *user-visible* lookups — not the structural
// sorted-ring predicate the E14 driver chases, but the success rate and
// tail latency of in-band queries issued open-loop while the survivors
// heal?  The driver measures three windows around the crash (pre / during /
// post-recovery), defines recovery as the first post-crash round whose
// trailing `recovery_window` of completions meets `slo_target`, and checks
// it against a *detection-latency budget* derived from the detector and
// retry configuration (slo_detection_window) — the claim under test is
// "detector + retries restore ≥ 99% lookup success within the detection
// window", with detector-off and retries-off rows as ablations.
//
// Like the other analysis drivers this is a pure function of its options:
// trial seeds, victim picks (core::crash_victims, the fuzzer's pick), and
// the lookup workload all derive from base_seed, so sweep cells and benches
// replay byte-identically.  Trials run in parallel (util::run_trials) and
// are folded in trial order.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/config.hpp"
#include "service/lookup_manager.hpp"

namespace sssw::obs {
class Registry;
}

namespace sssw::service {

struct SloOptions {
  std::size_t n = 256;
  std::size_t trials = 1;
  std::uint64_t base_seed = 1;
  double crash_frac = 0.1;    ///< simultaneous fail-stop fraction
  double message_loss = 0.0;  ///< uniform drop probability on the channels
  bool detector = true;       ///< active probe/ack detector on the survivors
  std::size_t burn_in = 0;    ///< pre-measurement rounds; 0 = 2n
  std::size_t warm_rounds = 256;  ///< measured pre-crash window
  std::size_t post_rounds = 0;    ///< measured post-crash window; 0 = 3x budget
  std::size_t recovery_window = 32;  ///< trailing window defining "recovered"
  double slo_target = 0.99;          ///< success-rate bar for recovery
  LookupConfig lookup{};             ///< workload; seed is re-derived per trial
  core::Config protocol{};           ///< detector.enabled forced by `detector`
};

/// Completion stats over one measurement window.  Percentiles are exact
/// (sorted raw samples, successes only) and -1 when the window holds none.
struct SloWindowStats {
  std::uint64_t completed = 0;  ///< requests that finished in the window
  std::uint64_t succeeded = 0;
  double success = -1.0;  ///< succeeded / completed; -1 if completed == 0
  double p50_latency = -1.0, p99_latency = -1.0, p999_latency = -1.0;
  double p50_hops = -1.0, p99_hops = -1.0, p999_hops = -1.0;
};

struct SloResult {
  SloWindowStats pre;           ///< [crash - warm_rounds, crash)
  SloWindowStats during_crash;  ///< [crash, recovery) — or to the end
  SloWindowStats post;          ///< [recovery, end)
  double recovery_rounds = -1.0;     ///< mean rounds to SLO-recovery (recovered trials)
  double recovered_fraction = 0.0;   ///< trials that recovered at all
  bool recovered_in_window = false;  ///< every trial recovered within the budget
  std::uint64_t detection_window = 0;  ///< slo_detection_window(options)
  double slo_target = 0.99;
  LookupManager::Totals totals;  ///< summed over trials
};

/// The round budget the recovery claim is checked against: detector
/// eviction latency ((threshold + retries + sum-of-backoffs) * period, the
/// fuzzer's bound) plus the service's own failure horizon (timeouts,
/// retry backoffs, jitter) plus one recovery window.
std::uint64_t slo_detection_window(const SloOptions& options);

/// `registry`, when non-null, accumulates per-trial node/engine/service
/// metrics (merged in trial order — deterministic).
SloResult measure_slo(const SloOptions& options,
                      obs::Registry* registry = nullptr);

}  // namespace sssw::service
