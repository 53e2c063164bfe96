// The adversarial experiments: E13 (convergence under an active fault plan)
// and E14 (crash recovery under the active failure detector).
#include <string>
#include <vector>

#include "analysis/convergence.hpp"
#include "analysis/drivers.hpp"
#include "core/invariants.hpp"
#include "core/messages.hpp"
#include "core/network.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace sssw::analysis {

namespace {

double injected_faults(const sim::Engine& engine) {
  const sim::FaultCounters& f = engine.counters().faults;
  return static_cast<double>(f.duplicated + f.delayed + f.replayed +
                             f.partition_dropped);
}

}  // namespace

// --- E13: convergence from a random chain under the fault adversary -------

// One FaultPlan dimension (or the oldest-last adversary) is live; the
// budget per trial is cell_budget, partition window included — the budget
// the fuzzer grants the same case.
CellResult run_faults(const SweepCell& cell, obs::Registry*) {
  struct Trial {
    bool survived = false;
    double rounds = -1;  ///< rounds to the sorted ring; -1 if not in budget
    double injected = 0;
  };
  const sim::EngineConfig engine = cell_engine(cell);
  const sim::FaultPlan& faults = engine.faults;
  core::NetworkOptions options;
  options.scheduler = engine.scheduler;
  options.faults = faults;
  options.adversary_delay = engine.adversary_delay;
  options.protocol = ablation_config(cell);
  const std::size_t budget = cell_budget(cell);
  const auto trials = util::run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        core::SmallWorldNetwork net = initial_network(
            topology::InitialShape::kRandomChain, cell.n, seed, options);
        Trial trial;
        // A partition may legitimately sever the CC (a dropped crossing
        // message takes its reference with it) — run the window out first
        // and only chase the ring if the network is still one component;
        // the sorted ring is unreachable from a split CC, so the budget
        // would be pure waste.
        std::size_t window = 0;
        if (faults.partition_rounds > 0) {
          window = static_cast<std::size_t>(faults.partition_start +
                                            faults.partition_rounds);
          net.run_rounds(window);
          if (!core::cc_weakly_connected(net.engine())) {
            trial.injected = injected_faults(net.engine());
            return trial;
          }
        }
        trial.survived = true;
        if (const auto rounds = net.run_until_sorted_ring(budget - window))
          trial.rounds = static_cast<double>(window + *rounds);
        trial.injected = injected_faults(net.engine());
        return trial;
      });

  double sum_rounds = 0, injected = 0;
  std::size_t converged = 0, survived = 0;
  for (const Trial& trial : trials) {
    injected += trial.injected;
    if (trial.survived) ++survived;
    if (trial.rounds < 0) continue;
    sum_rounds += trial.rounds;
    ++converged;
  }
  const auto count = static_cast<double>(cell.trials);
  CellResult out;
  out.add("rounds",
          converged > 0 ? sum_rounds / static_cast<double>(converged) : -1.0);
  out.add("converged", static_cast<double>(converged) / count);
  out.add("survived", static_cast<double>(survived) / count);
  out.add("injected", injected / count);
  return out;
}

// --- E14: crash recovery under the active failure detector -----------------

// A `crash` fraction of a stabilized, burned-in ring fail-stops at once;
// survivors heal via the active probe/ack detector (mode=crash) or via
// detected leave() with no detector (mode=leave, the §IV.G baseline).  The
// healing budget is cell.max_rounds, else round_budget of this engine —
// which, unlike cell_budget, sees the `loss` param and doubles under it.
// The merged per-trial registries (in trial order — deterministic) go to
// `registry` when it is non-null.
CellResult run_recovery(const SweepCell& cell, obs::Registry* registry) {
  struct Trial {
    bool healed = false, survived = false, measured = false;
    double rounds = 0;  ///< repair rounds (0 when nothing crashed)
    double msgs_per_nr = 0, detector_share = 0, evictions = 0;
    obs::Registry registry;
  };
  const double crash_frac = number_param(cell, "crash");
  const bool use_crash = word_param(cell, "mode") == "crash";
  core::NetworkOptions options;
  options.message_loss = number_param(cell, "loss");
  options.protocol = ablation_config(cell);
  options.protocol.detector.enabled = use_crash;  // leave needs no detector
  const std::uint64_t budget =
      cell.max_rounds > 0 ? cell.max_rounds : round_budget(cell.n, options);
  auto trials = util::run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        Trial trial;
        core::NetworkOptions trial_options = options;
        trial_options.seed = seed;
        core::SmallWorldNetwork net = core::make_stable_ring(cell.n, trial_options);
        net.attach_metrics(trial.registry);
        net.run_rounds(4 * cell.n);  // burn-in: links spread, probe timers cycling

        const std::vector<sim::Id> victims =
            core::crash_victims(net.engine().id_span(), crash_frac, seed);
        for (const sim::Id victim : victims)
          use_crash ? net.crash(victim) : net.leave(victim);

        const sim::EngineCounters before = net.engine().counters();
        // Healing window: chase the ring after an event, or run a fixed
        // window for the crash_frac=0 steady-state-overhead rows.
        if (!victims.empty()) {
          if (const auto rounds = net.run_until_sorted_ring(budget)) {
            trial.rounds = static_cast<double>(*rounds);
            trial.healed = true;
          }
        } else {
          net.run_rounds(256);
          trial.healed = true;  // nothing to heal
        }
        trial.survived = trial.healed || core::cc_weakly_connected(net.engine());

        const sim::EngineCounters& after = net.engine().counters();
        const std::uint64_t window = after.rounds - before.rounds;
        const std::uint64_t sent = after.total_sent() - before.total_sent();
        if (window > 0 && net.size() > 0) {
          trial.measured = true;
          trial.msgs_per_nr = static_cast<double>(sent) /
                              (static_cast<double>(window) *
                               static_cast<double>(net.size()));
          const std::uint64_t detector_msgs =
              after.sent_by_type[core::kPing] + after.sent_by_type[core::kPong] -
              before.sent_by_type[core::kPing] - before.sent_by_type[core::kPong];
          trial.detector_share = sent > 0 ? static_cast<double>(detector_msgs) /
                                                static_cast<double>(sent)
                                          : 0.0;
        }
        trial.evictions = static_cast<double>(
            trial.registry.counter("node.detector.evictions").value());
        return trial;
      });

  double rounds_sum = 0, msgs_sum = 0, share_sum = 0, evict_sum = 0;
  std::size_t healed = 0, survived = 0, windows = 0;
  for (const Trial& trial : trials) {
    if (trial.healed) {
      rounds_sum += trial.rounds;
      ++healed;
    }
    if (trial.survived) ++survived;
    if (trial.measured) {
      msgs_sum += trial.msgs_per_nr;
      share_sum += trial.detector_share;
      ++windows;
    }
    evict_sum += trial.evictions;
    if (registry != nullptr) registry->merge(trial.registry);
  }
  const auto count = static_cast<double>(cell.trials);
  CellResult out;
  out.add("repair_rounds",
          healed > 0 ? rounds_sum / static_cast<double>(healed) : -1.0);
  out.add("healed", static_cast<double>(healed) / count);
  out.add("survived", static_cast<double>(survived) / count);
  out.add("msgs_per_nr", windows > 0 ? msgs_sum / static_cast<double>(windows) : 0.0);
  out.add("detector_share",
          windows > 0 ? share_sum / static_cast<double>(windows) : 0.0);
  out.add("evictions", evict_sum / count);
  return out;
}

}  // namespace sssw::analysis
