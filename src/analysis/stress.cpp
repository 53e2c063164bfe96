#include "analysis/stress.hpp"

#include <vector>

#include "analysis/convergence.hpp"
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

FaultSweepResult measure_fault_convergence(const FaultSweepOptions& options) {
  struct Trial {
    bool survived = false;
    double rounds = -1;  ///< rounds to the sorted ring; -1 if not in budget
    double injected = 0;
  };
  core::NetworkOptions net_options;
  net_options.scheduler = options.scheduler;
  net_options.faults = options.faults;
  net_options.adversary_delay = options.adversary_delay;
  net_options.protocol = options.protocol;
  const auto trials = util::run_trials<Trial>(
      options.trials, options.base_seed, [&](std::size_t, std::uint64_t seed) {
        core::SmallWorldNetwork net = initial_network(
            topology::InitialShape::kRandomChain, options.n, seed, net_options);
        Trial trial;
        // A partition may legitimately sever the CC (a dropped crossing
        // message takes its reference with it) — run the window out first
        // and only chase the ring if the network is still one component;
        // the sorted ring is unreachable from a split CC, so the budget
        // would be pure waste.
        std::size_t window = 0;
        if (options.faults.partition_rounds > 0) {
          window = static_cast<std::size_t>(options.faults.partition_start +
                                            options.faults.partition_rounds);
          net.run_rounds(window);
          if (!core::cc_weakly_connected(net.engine())) {
            trial.injected = injected_faults(net.engine());
            return trial;
          }
        }
        trial.survived = true;
        if (const auto rounds = net.run_until_sorted_ring(options.max_rounds - window))
          trial.rounds = static_cast<double>(window + *rounds);
        trial.injected = injected_faults(net.engine());
        return trial;
      });

  FaultSweepResult result;
  double sum_rounds = 0;
  std::size_t converged = 0, survived = 0;
  for (const Trial& trial : trials) {
    result.injected += trial.injected;
    if (trial.survived) ++survived;
    if (trial.rounds < 0) continue;
    sum_rounds += trial.rounds;
    ++converged;
  }
  const auto count = static_cast<double>(options.trials);
  result.rounds = converged > 0 ? sum_rounds / static_cast<double>(converged) : -1.0;
  result.converged = static_cast<double>(converged) / count;
  result.survived = static_cast<double>(survived) / count;
  result.injected /= count;
  return result;
}

RecoveryResult measure_crash_recovery(const RecoveryOptions& options,
                                      obs::Registry* registry) {
  struct Trial {
    bool healed = false, survived = false, measured = false;
    double rounds = 0;  ///< repair rounds (0 when nothing crashed)
    double msgs_per_nr = 0, detector_share = 0, evictions = 0;
    obs::Registry registry;
  };
  const bool use_crash = options.mode == RecoveryOptions::Mode::kCrash;
  core::NetworkOptions net_options;
  net_options.message_loss = options.message_loss;
  net_options.protocol = options.protocol;
  net_options.protocol.detector.enabled = use_crash;  // leave needs no detector
  const std::uint64_t budget = options.max_rounds > 0
                                   ? options.max_rounds
                                   : round_budget(options.n, net_options);
  auto trials = util::run_trials<Trial>(
      options.trials, options.base_seed, [&](std::size_t, std::uint64_t seed) {
        Trial trial;
        core::NetworkOptions trial_options = net_options;
        trial_options.seed = seed;
        core::SmallWorldNetwork net = core::make_stable_ring(options.n, trial_options);
        net.attach_metrics(trial.registry);
        net.run_rounds(4 * options.n);  // burn-in: links spread, probe timers cycling

        const std::vector<sim::Id> victims =
            core::crash_victims(net.engine().id_span(), options.crash_frac, seed);
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

  RecoveryResult result;
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
  const auto count = static_cast<double>(options.trials);
  result.repair_rounds =
      healed > 0 ? rounds_sum / static_cast<double>(healed) : -1.0;
  result.healed = static_cast<double>(healed) / count;
  result.survived = static_cast<double>(survived) / count;
  result.msgs_per_nr = windows > 0 ? msgs_sum / static_cast<double>(windows) : 0.0;
  result.detector_share =
      windows > 0 ? share_sum / static_cast<double>(windows) : 0.0;
  result.evictions = evict_sum / count;
  return result;
}

}  // namespace sssw::analysis
