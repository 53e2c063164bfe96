// bench_ablation — experiments A1/A2 (DESIGN.md §3).
//
// A1: what the LINEARIZE long-range-link shortcut buys during stabilization,
//     and how the full protocol compares to the plain linearization baseline
//     (Onus et al.) on the same initial states.
// A2: convergence under the three schedulers (synchronous, random-async,
//     adversarial LIFO drain).
// Counters: rounds_mean, msgs_per_node, converged.
#include <memory>
#include <numeric>

#include "analysis/convergence.hpp"
#include "baselines/fingers.hpp"
#include "baselines/linearization.hpp"
#include "bench_common.hpp"
#include "core/views.hpp"
#include "routing/greedy.hpp"

namespace {

using namespace sssw;

void run_variant(benchmark::State& state, const core::Config& config,
                 sim::SchedulerKind scheduler) {
  const auto n = static_cast<std::size_t>(state.range(0));
  analysis::ConvergenceOptions options;
  options.n = n;
  options.trials = 4;
  options.base_seed = bench::kBaseSeed + n;
  options.max_rounds = 4000 * n;
  options.protocol = config;
  options.scheduler = scheduler;
  analysis::ConvergenceResult result;
  for (auto _ : state)
    result = analysis::measure_convergence(topology::InitialShape::kRandomChain,
                                           options);
  state.counters["rounds_mean"] = result.list_rounds.mean;
  state.counters["msgs_per_node"] = result.messages_per_node.mean;
  state.counters["converged"] = result.converged;
  state.counters["n"] = static_cast<double>(n);
}

void BM_Ablation_FullProtocol(benchmark::State& state) {
  run_variant(state, core::Config{}, sim::SchedulerKind::kSynchronous);
}

void BM_Ablation_NoLrlShortcut(benchmark::State& state) {
  core::Config config;
  config.lrl_shortcut = false;
  run_variant(state, config, sim::SchedulerKind::kSynchronous);
}

void BM_Ablation_NoMoveAndForget(benchmark::State& state) {
  core::Config config;
  config.move_and_forget_enabled = false;
  run_variant(state, config, sim::SchedulerKind::kSynchronous);
}

void BM_Ablation_MultiLink(benchmark::State& state) {
  // k long-range links per node (extension): routing quality vs the extra
  // degree and inclrl/reslrl traffic.  Arg = k.
  const auto links = static_cast<std::uint32_t>(state.range(0));
  const std::size_t n = 192;
  core::Config config;
  config.lrl_count = links;
  core::SmallWorldNetwork network =
      bench::stabilized(n, bench::kBaseSeed, 6 * n, config);
  const core::IdIndex index = network.make_index();
  const auto graph = core::view_cp(network.engine(), index);
  util::Rng rng(bench::kBaseSeed + links);
  routing::RoutingStats stats;
  const std::uint64_t sent_before = network.engine().counters().total_sent();
  for (auto _ : state) {
    stats = routing::evaluate_routing(graph, rng, 300, n);
    network.run_rounds(64);
  }
  state.counters["hops_mean"] = stats.hops.mean;
  state.counters["success"] = stats.success_rate;
  state.counters["msgs_per_node_round"] =
      static_cast<double>(network.engine().counters().total_sent() -
                          sent_before) /
      static_cast<double>(n) / 64.0;
  state.counters["links"] = static_cast<double>(links);
}
BENCHMARK(BM_Ablation_MultiLink)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Ablation_MessageLoss(benchmark::State& state) {
  // Convergence under lossy channels (extension; the paper assumes lossless).
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  const std::size_t n = 64;
  double rounds_sum = 0, converged = 0;
  constexpr int kTrials = 4;
  for (auto _ : state) {
    rounds_sum = converged = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const std::uint64_t seed = bench::kBaseSeed + trial;
      util::Rng rng(seed);
      core::NetworkOptions options;
      options.seed = seed;
      options.message_loss = loss;
      core::SmallWorldNetwork network(options);
      network.add_nodes(topology::make_initial_state(
          topology::InitialShape::kRandomChain, core::random_ids(n, rng), rng));
      // Non-convergence here is usually a *permanent* disconnection (a
      // linearization handoff message lost): cap the budget accordingly.
      const auto rounds = network.run_until_sorted_ring(20000);
      if (rounds.has_value()) {
        converged += 1;
        rounds_sum += static_cast<double>(*rounds);
      }
    }
  }
  state.counters["rounds_mean"] = converged > 0 ? rounds_sum / converged : -1.0;
  state.counters["converged"] = converged / kTrials;
  state.counters["loss"] = loss;
}
BENCHMARK(BM_Ablation_MessageLoss)->Arg(0)->Arg(10)->Arg(30)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Ablation_SchedulerAsync(benchmark::State& state) {
  run_variant(state, core::Config{}, sim::SchedulerKind::kRandomAsync);
}

void BM_Ablation_SchedulerLifo(benchmark::State& state) {
  run_variant(state, core::Config{}, sim::SchedulerKind::kAdversarialLifo);
}

void BM_Ablation_LinearizationBaseline(benchmark::State& state) {
  // The Onus-style baseline on the same random-chain initial states.
  const auto n = static_cast<std::size_t>(state.range(0));
  double rounds_sum = 0, msgs_sum = 0, converged = 0;
  constexpr int kTrials = 4;
  for (auto _ : state) {
    rounds_sum = msgs_sum = converged = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const std::uint64_t seed = bench::kBaseSeed + n + trial;
      util::Rng rng(seed);
      auto ids = core::random_ids(n, rng);
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      util::shuffle(order, rng);
      std::vector<sim::Id> l(n, sim::kNegInf), r(n, sim::kPosInf);
      for (std::size_t k = 0; k + 1 < n; ++k) {
        const sim::Id to = ids[order[k + 1]];
        (to < ids[order[k]] ? l : r)[order[k]] = to;
      }
      sim::Engine engine(sim::EngineConfig{.seed = seed});
      for (std::size_t i = 0; i < n; ++i)
        engine.add_process(
            std::make_unique<baselines::LinearizationNode>(ids[i], l[i], r[i]));
      if (engine.run_until([&] { return baselines::is_sorted_list(engine); },
                           4000 * n)) {
        converged += 1.0;
        rounds_sum += static_cast<double>(engine.round());
        msgs_sum += static_cast<double>(engine.counters().total_sent()) /
                    static_cast<double>(n);
      }
    }
  }
  state.counters["rounds_mean"] = converged > 0 ? rounds_sum / converged : 0.0;
  state.counters["msgs_per_node"] = converged > 0 ? msgs_sum / converged : 0.0;
  state.counters["converged"] = converged / kTrials;
  state.counters["n"] = static_cast<double>(n);
}

void BM_Ablation_FingerOverlay(benchmark::State& state) {
  // The structured-overlay side of the paper's §I comparison, built
  // self-stabilizingly on the same engine (Re-Chord-lite): rounds and
  // messages from a random chain to the fully legal state (sorted list +
  // every finger correct), against the sssw rows above.
  const auto n = static_cast<std::size_t>(state.range(0));
  double rounds_sum = 0, msgs_sum = 0, converged = 0, degree = 0;
  constexpr int kTrials = 4;
  for (auto _ : state) {
    rounds_sum = msgs_sum = converged = degree = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const std::uint64_t seed = bench::kBaseSeed + n + trial;
      util::Rng rng(seed);
      auto ids = core::random_ids(n, rng);
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      util::shuffle(order, rng);
      std::vector<sim::Id> l(n, sim::kNegInf), r(n, sim::kPosInf);
      for (std::size_t k = 0; k + 1 < n; ++k) {
        const sim::Id to = ids[order[k + 1]];
        (to < ids[order[k]] ? l : r)[order[k]] = to;
      }
      sim::Engine engine(sim::EngineConfig{.seed = seed});
      for (std::size_t i = 0; i < n; ++i)
        engine.add_process(std::make_unique<baselines::FingerNode>(
            ids[i], l[i], r[i], baselines::FingerConfig{}));
      const bool done = engine.run_until(
          [&] {
            return baselines::fingers_sorted_list(engine) &&
                   baselines::fingers_correct(engine);
          },
          4000 * n);
      if (done) {
        converged += 1.0;
        rounds_sum += static_cast<double>(engine.round());
        msgs_sum += static_cast<double>(engine.counters().total_sent()) /
                    static_cast<double>(n);
        const auto graph = baselines::finger_view(engine);
        double total = 0;
        for (graph::Vertex v = 0; v < graph.vertex_count(); ++v)
          total += static_cast<double>(graph.out_degree(v));
        degree += total / static_cast<double>(n);
      }
    }
  }
  state.counters["rounds_mean"] = converged > 0 ? rounds_sum / converged : -1.0;
  state.counters["msgs_per_node"] = converged > 0 ? msgs_sum / converged : -1.0;
  state.counters["degree"] = converged > 0 ? degree / converged : -1.0;
  state.counters["converged"] = converged / kTrials;
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_Ablation_FingerOverlay)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

#define SSSW_ABLATION_ARGS \
  ->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond)->Iterations(1)

BENCHMARK(BM_Ablation_FullProtocol) SSSW_ABLATION_ARGS;
BENCHMARK(BM_Ablation_NoLrlShortcut) SSSW_ABLATION_ARGS;
BENCHMARK(BM_Ablation_NoMoveAndForget) SSSW_ABLATION_ARGS;
BENCHMARK(BM_Ablation_SchedulerAsync)->Arg(64)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_SchedulerLifo)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_LinearizationBaseline) SSSW_ABLATION_ARGS;

}  // namespace

BENCHMARK_MAIN();
