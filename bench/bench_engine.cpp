// bench_engine — P1 (DESIGN.md §3): simulator substrate micro-benchmarks.
//
// Not a paper experiment — this pins the performance envelope of the
// substrate every experiment runs on: rounds/sec for stable rings of various
// sizes, per-scheduler action throughput (which covers the channel path),
// and graph-view extraction cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/convergence.hpp"
#include "core/invariants.hpp"
#include "core/node.hpp"
#include "core/views.hpp"
#include "obs/registry.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace {

using namespace sssw;

/// Fixed base seed: every row is reproducible run-to-run.
constexpr std::uint64_t kBaseSeed = 20120521;

/// Publishes every metric of `registry` as a google-benchmark counter under
/// its flat registry name (obs::flatten, the rule sweep cells use too).
void report_registry(benchmark::State& state, const obs::Registry& registry) {
  for (const auto& [name, value] : obs::flatten(registry))
    state.counters[name] = value;
}

void BM_Engine_StableRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::SmallWorldNetwork network = analysis::stabilized_network(n, kBaseSeed, 8);
  for (auto _ : state) network.run_rounds(1);
  const auto& counters = network.engine().counters();
  state.SetItemsProcessed(static_cast<std::int64_t>(counters.actions));
  state.counters["msgs_per_round"] =
      static_cast<double>(counters.total_sent()) /
      static_cast<double>(network.engine().round());
}
BENCHMARK(BM_Engine_StableRound)->Arg(100)->Arg(1000)->Arg(10000)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Scaling series: actions/sec vs n for every SchedulerKind, reported through
// the observability registry (engine.actions et al. appear as benchmark
// counters, items/sec is actions/sec of wall-clock time).  The async
// scheduler used to pay O(n) per atomic action (full pending recount +
// linear channel walk); with the Fenwick-indexed hot path it pays O(log n),
// which is what this series pins.  An async "round" is capped at a fixed
// action budget so one iteration stays comparable across n.
void BM_Engine_ActionThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kind = static_cast<sim::SchedulerKind>(state.range(1));
  util::Rng rng(kBaseSeed);
  core::NetworkOptions options;
  options.seed = kBaseSeed;
  options.scheduler = kind;
  options.async_actions_per_round = 4096;
  core::SmallWorldNetwork network =
      core::make_stable_ring(core::random_ids(n, rng), options);
  obs::Registry registry;
  network.attach_metrics(registry);
  for (auto _ : state) network.run_rounds(1);
  state.SetLabel(sim::to_string(kind));
  state.SetItemsProcessed(static_cast<std::int64_t>(
      registry.find_counter("engine.actions")->value()));
  report_registry(state, registry);
}
BENCHMARK(BM_Engine_ActionThroughput)
    ->ArgsProduct({{1000, 10000, 100000},
                   {static_cast<int>(sim::SchedulerKind::kSynchronous),
                    static_cast<int>(sim::SchedulerKind::kRandomAsync),
                    static_cast<int>(sim::SchedulerKind::kAdversarialLifo),
                    static_cast<int>(sim::SchedulerKind::kDelayedRandom)}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The detector-on protocol path of E15's deployment: every node pings its
// 3 + k stored pointers each probe period, and every adoption, link move,
// probe step and lookup hop first asks the detector whether the id is dead.
// A stable ring with k = 8 links, the active detector and the registry
// attached, burnt in for four probe periods so every pointer is watched;
// then one synchronous round per iteration.
void BM_Engine_DetectorRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(kBaseSeed);
  core::NetworkOptions options;
  options.seed = kBaseSeed;
  options.protocol.lrl_count = 8;
  options.protocol.detector.enabled = true;
  core::SmallWorldNetwork network =
      core::make_stable_ring(core::random_ids(n, rng), options);
  obs::Registry registry;
  network.attach_metrics(registry);
  network.run_rounds(4 * options.protocol.detector.probe_period);
  const std::uint64_t burn_in = network.engine().counters().actions;
  for (auto _ : state) network.run_rounds(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      network.engine().counters().actions - burn_in));
  report_registry(state, registry);
}
BENCHMARK(BM_Engine_DetectorRound)->Arg(512)->Arg(10000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Million-node headline run: build a stable ring of 10^6 nodes (bulk construction is O(1) amortized per node
// when ids arrive sorted), then knock EVERY node's l and r pointers up to
// 64 ranks off — in-domain damage (l stays < id < r; the paper's variable
// domain) whose repair genuinely propagates instead of healing in one
// neighbour exchange, so convergence takes tens of rounds of full-network
// linearization traffic.  Single iteration — the point is that the run
// completes at all on one machine and what the whole-run actions/s figure
// is, not statistical timing.
void BM_Engine_MillionNodeRecovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(kBaseSeed);
    core::NetworkOptions options;
    options.seed = kBaseSeed;
    core::SmallWorldNetwork network =
        core::make_stable_ring(core::random_ids(n, rng), options);
    const auto span = network.engine().id_span();
    const std::vector<sim::Id> ids(span.begin(), span.end());
    for (std::size_t rank = 0; rank < n; ++rank) {
      core::SmallWorldNode* node = network.node(ids[rank]);
      const std::size_t lspan = std::min<std::size_t>(rank, 64);
      const std::size_t rspan = std::min<std::size_t>(n - rank - 1, 64);
      if (lspan > 0) node->set_l(ids[rank - 1 - rng.below(lspan)]);
      if (rspan > 0) node->set_r(ids[rank + 1 + rng.below(rspan)]);
    }
    state.ResumeTiming();
    const auto result = network.run_until_sorted_list(4000);
    if (!result.has_value()) {
      state.SkipWithError("did not re-converge within budget");
      return;
    }
    rounds = *result;
    state.counters["actions"] =
        static_cast<double>(network.engine().counters().actions);
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_Engine_MillionNodeRecovery)
    ->Arg(1000000)
    ->UseRealTime()
    ->Unit(benchmark::kSecond)->Iterations(1);

void BM_Views_ExtractCp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::SmallWorldNetwork network = analysis::stabilized_network(n, kBaseSeed, 8);
  const core::IdIndex index = network.make_index();
  for (auto _ : state) {
    auto graph = core::view_cp(network.engine(), index);
    benchmark::DoNotOptimize(graph.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Views_ExtractCp)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_Invariant_SortedRingCheck(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::SmallWorldNetwork network = analysis::stabilized_network(n, kBaseSeed, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.sorted_ring());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Invariant_SortedRingCheck)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// --- incremental convergence oracle: before/after sweeps ---------------------
//
// The "recompute" side of each pair below asks the from-scratch oracle in
// core/invariants.hpp, the "tracked" side the network's InvariantTracker.
// Both sides of a pair drive the identical deterministic trajectory — only
// observation differs — so equal `rounds` counters in the report double as
// a determinism check.

enum class OracleMode { kTracked = 0, kRecompute = 1 };

core::SmallWorldNetwork chain_network(std::size_t n, std::uint64_t seed,
                                      sim::SchedulerKind scheduler,
                                      std::size_t async_slice) {
  util::Rng rng(seed);
  auto ids = core::random_ids(n, rng);
  core::NetworkOptions options;
  options.seed = seed;
  options.scheduler = scheduler;
  options.async_actions_per_round = async_slice;
  core::SmallWorldNetwork network(options);
  network.add_nodes(topology::make_initial_state(
      topology::InitialShape::kRandomChain, std::move(ids), rng));
  return network;
}

// E1-style sorted-list convergence from a random chain, synchronous rounds.
// The predicate runs once per round; pre-convergence the recompute predicate
// early-exits on the first unsorted node, so protocol work dominates both
// modes and the honest whole-run win here is small.  This sweep pins the
// unmonitored worst case instead: the tracker's mutation hooks must stay a
// few percent of round cost (they measure ~10% at n=256, parity by n=1024).
void BM_Convergence_RunUntilSortedList(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mode = static_cast<OracleMode>(state.range(1));
  const std::size_t budget = 400 * n + 4000;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::SmallWorldNetwork network = chain_network(
        n, kBaseSeed + n, sim::SchedulerKind::kSynchronous, 0);
    state.ResumeTiming();
    if (mode == OracleMode::kRecompute) {
      sim::Engine& engine = network.engine();
      const std::uint64_t start = engine.round();
      if (!engine.run_until([&] { return core::is_sorted_list(engine); },
                            budget)) {
        state.SkipWithError("did not converge within budget");
        return;
      }
      rounds = engine.round() - start;
    } else {
      const auto result = network.run_until_sorted_list(budget);
      if (!result.has_value()) {
        state.SkipWithError("did not converge within budget");
        return;
      }
      rounds = *result;
    }
    state.counters["actions"] =
        static_cast<double>(network.engine().counters().actions);
  }
  state.SetLabel(mode == OracleMode::kRecompute ? "recompute" : "tracked");
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_Convergence_RunUntilSortedList)
    ->ArgsProduct({{256, 1024, 4096},
                   {static_cast<int>(OracleMode::kTracked),
                    static_cast<int>(OracleMode::kRecompute)}})
    ->Unit(benchmark::kMillisecond)->Iterations(2);

// E1-style convergence run with the phase ladder observed every scheduler
// slice (how the fuzzer, phase-timeline driver, and any monitored deployment
// watch a run), under the fine-grained random-async scheduler the paper's
// adversary motivates.  Recompute observation runs detect_phase from scratch
// per slice — Θ(n) scans plus graph-BFS below the sorted list — which
// dominates the slice's own protocol work; the tracker answers the ≥
// sorted-list rungs in O(1) and backs the BFS off exponentially (stride cap
// 64).  This is the regime where the tracker must win by ≥ 10×.
void BM_Convergence_ObservedRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mode = static_cast<OracleMode>(state.range(1));
  const std::size_t kSlice = 64;  // atomic actions per observation
  const std::size_t budget = (400 * n + 4000) * 4;
  std::uint64_t slices = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::SmallWorldNetwork network = chain_network(
        n, kBaseSeed + n, sim::SchedulerKind::kRandomAsync, kSlice);
    state.ResumeTiming();
    slices = 0;
    bool converged = false;
    if (mode == OracleMode::kRecompute) {
      for (std::size_t slice = 0; slice <= budget; ++slice, ++slices) {
        if (core::detect_phase(network.engine()) >=
            core::Phase::kSortedRing) {
          converged = true;
          break;
        }
        network.run_rounds(1);
      }
    } else {
      // The backoff classifier measure_phase_timeline uses.
      std::size_t stride = 1;
      std::uint64_t next_low_check = 0;
      auto last_low = core::Phase::kDisconnected;
      for (std::size_t slice = 0; slice <= budget; ++slice, ++slices) {
        core::Phase phase;
        if (network.sorted_list()) {
          stride = 1;
          next_low_check = slice;
          phase = network.sorted_ring() ? core::Phase::kSortedRing
                                        : core::Phase::kSortedList;
        } else if (slice >= next_low_check) {
          phase = network.phase();  // BFS ladder
          stride = phase == last_low ? std::min<std::size_t>(stride * 2, 64) : 1;
          last_low = phase;
          next_low_check = slice + stride;
        } else {
          phase = last_low;
        }
        if (phase >= core::Phase::kSortedRing) {
          converged = true;
          break;
        }
        network.run_rounds(1);
      }
    }
    if (!converged) {
      state.SkipWithError("did not converge within budget");
      return;
    }
    state.counters["actions"] =
        static_cast<double>(network.engine().counters().actions);
  }
  state.SetLabel(mode == OracleMode::kRecompute ? "recompute" : "tracked");
  state.counters["rounds"] = static_cast<double>(slices);
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_Convergence_ObservedRun)
    ->ArgsProduct({{256, 1024, 4096},
                   {static_cast<int>(OracleMode::kTracked),
                    static_cast<int>(OracleMode::kRecompute)}})
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// The convergence check itself, isolated: what one run_until predicate
// evaluation costs on a stabilized network (the post-sorted-list regime,
// where the recompute predicates can no longer early-exit).  This is the
// per-round tax the tracker removes; tools/sssw_perf_smoke.cpp gates CI on
// the same ratio.
void BM_Convergence_CheckEval(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mode = static_cast<OracleMode>(state.range(1));
  core::SmallWorldNetwork network = analysis::stabilized_network(n, kBaseSeed, 8);
  if (mode == OracleMode::kRecompute) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(core::is_sorted_ring(network.engine()));
      benchmark::DoNotOptimize(core::lrls_resolve(network.engine()));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(network.sorted_ring());
      benchmark::DoNotOptimize(network.lrls_resolve());
    }
  }
  state.SetLabel(mode == OracleMode::kRecompute ? "recompute" : "tracked");
  state.counters["n"] = static_cast<double>(n);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Convergence_CheckEval)
    ->ArgsProduct({{256, 1024, 4096},
                   {static_cast<int>(OracleMode::kTracked),
                    static_cast<int>(OracleMode::kRecompute)}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
