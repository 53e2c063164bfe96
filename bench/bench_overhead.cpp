// bench_overhead — experiment E8 (DESIGN.md §3).
//
// Paper claim (§IV.F): probing — the connectivity watchdog — adds only
// polylogarithmic message overhead per probe, and the protocol as a whole
// sends O(1) messages per node per round in the stable state.  Counters:
//   msgs_per_node_round  total message rate
//   <type>_share         fraction of traffic per message type
// The probe_interval sweep shows the probing share shrinking proportionally
// while the lin/inclrl/reslrl backbone stays constant.
#include <string>

#include "bench_common.hpp"
#include "core/messages.hpp"
#include "topology/initial_states.hpp"

namespace {

using namespace sssw;

void BM_Overhead_StableState(benchmark::State& state) {
  const std::size_t n = 256;
  core::Config config;
  config.probe_interval = static_cast<std::uint32_t>(state.range(0));
  core::SmallWorldNetwork network =
      bench::stabilized(n, bench::kBaseSeed, 4 * n, config);
  obs::Registry registry;
  network.attach_metrics(registry);

  constexpr std::size_t kMeasureRounds = 256;
  sim::EngineCounters before;
  for (auto _ : state) {
    before = network.engine().counters();
    registry.reset();
    network.run_rounds(kMeasureRounds);
  }
  const auto& counters = network.engine().counters();
  const double total =
      static_cast<double>(counters.total_sent() - before.total_sent());
  state.counters["msgs_per_node_round"] =
      total / static_cast<double>(n) / static_cast<double>(kMeasureRounds);
  for (sim::MessageType type = 0; type < core::kNumMsgTypes; ++type) {
    const auto sent = counters.sent_by_type[type] - before.sent_by_type[type];
    state.counters[std::string(core::msg_type_name(type)) + "_share"] =
        total > 0 ? static_cast<double>(sent) / total : 0.0;
  }
  state.counters["probe_interval"] = static_cast<double>(state.range(0));
  bench::report_registry(state, registry);
}
BENCHMARK(BM_Overhead_StableState)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Overhead_DuringStabilization(benchmark::State& state) {
  // Message rate while converging from a random chain (the transient load).
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(bench::kBaseSeed);
    auto ids = core::random_ids(n, rng);
    core::NetworkOptions options;
    options.seed = bench::kBaseSeed;
    core::SmallWorldNetwork network(options);
    network.add_nodes(topology::make_initial_state(
        topology::InitialShape::kRandomChain, std::move(ids), rng));
    const auto rounds = network.run_until_sorted_ring(4000 * n);
    const double taken = rounds.has_value() ? static_cast<double>(*rounds) : 0.0;
    state.counters["rounds"] = taken;
    state.counters["msgs_per_node_round"] =
        taken > 0 ? static_cast<double>(network.engine().counters().total_sent()) /
                        static_cast<double>(n) / taken
                  : 0.0;
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_Overhead_DuringStabilization)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
