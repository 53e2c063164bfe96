// sssw_perf_smoke — CI guard for the incremental convergence oracle.
//
//   ./sssw_perf_smoke --n 2048 --min-ratio 20
//
// The invariant tracker makes every convergence predicate O(1); this tool
// fails (exit 1) if that stops being true.  It stabilizes a ring of n nodes
// and then measures the wall-clock cost of one convergence-check evaluation
// two ways:
//
//   oracle   recompute from scratch (core::is_sorted_ring + lrls_resolve),
//            Θ(n) per evaluation by construction;
//   tracked  the network's tracker-backed predicates, O(1) per evaluation.
//
// The oracle/tracked time ratio must be at least --min-ratio.  The threshold
// is deliberately generous (the real ratio at n=2048 is in the thousands):
// it only trips when someone reintroduces a per-round O(n) scan into the
// tracked path, not on noisy CI machines — both sides slow down together
// under load, so the *ratio* is load-robust.
//
// Two correctness gates ride along, so the smoke also fails if the fast path
// drifts from the oracle: the tracker must agree with the recomputed
// predicates on the stabilized network (verify_against aborts on internal
// divergence), and a small tracked convergence run must take bit-identically
// as many rounds as an oracle-driven twin.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/convergence.hpp"
#include "core/invariants.hpp"
#include "core/network.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace sssw;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Reads the top-level `"perf_smoke_min_ratio": X` field out of a
/// BENCH_*.json artifact, so the CI floor lives next to the measured numbers
/// it guards instead of being a constant in this file.  Returns false if the
/// file is missing or not JSON, or the field is missing or not a number.
bool read_min_ratio(const std::string& path, double* out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = util::parse_json(buffer.str());
  if (!doc) return false;
  const auto ratio = (*doc)["perf_smoke_min_ratio"].number<double>();
  if (!ratio) return false;
  *out = *ratio;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t n = 2048;
  std::int64_t seed = 20120521;
  double min_ratio = 0.0;  // 0 = unset: --bench-json floor, else 20
  std::string bench_json;
  util::Cli cli("perf smoke: convergence predicates must stay O(1)");
  cli.flag("n", "network size for the timing comparison", &n);
  cli.flag("seed", "rng seed", &seed);
  cli.flag("min-ratio",
           "minimum oracle/tracked time ratio per predicate evaluation "
           "(overrides --bench-json)",
           &min_ratio);
  cli.flag("bench-json",
           "BENCH artifact carrying the perf_smoke_min_ratio floor "
           "(e.g. BENCH_convergence.json)",
           &bench_json);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  if (n < 4) {
    std::fprintf(stderr, "--n must be at least 4\n");
    return 2;
  }
  if (min_ratio <= 0.0) {
    if (!bench_json.empty()) {
      if (!read_min_ratio(bench_json, &min_ratio)) {
        std::fprintf(stderr, "no perf_smoke_min_ratio in %s\n",
                     bench_json.c_str());
        return 2;
      }
      std::printf("floor from %s: %.1fx\n", bench_json.c_str(), min_ratio);
    } else {
      min_ratio = 20.0;
    }
  }

  // Stabilized ring with a short burn-in so lrls are spread: the regime
  // where the recompute predicates cannot early-exit.
  core::NetworkOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  core::SmallWorldNetwork network =
      core::make_stable_ring(static_cast<std::size_t>(n), options);
  network.run_rounds(8);

  // Gate 1: the fast path answers exactly what the oracle answers.
  network.tracker().verify_against(network.engine());
  const sim::Engine& engine = network.engine();
  if (network.sorted_list() != core::is_sorted_list(engine) ||
      network.sorted_ring() != core::is_sorted_ring(engine) ||
      network.lrls_resolve() != core::lrls_resolve(engine)) {
    std::fprintf(stderr, "FAIL: tracked predicates disagree with the oracle\n");
    return 1;
  }

  // Time the oracle until it has run for a meaningful window, then grant the
  // tracked side the same number of evaluations scaled up; both loops fold
  // the answers so the calls cannot be optimized away.
  bool fold = true;
  std::size_t oracle_evals = 0;
  const auto oracle_start = Clock::now();
  do {
    for (std::size_t i = 0; i < 16; ++i, ++oracle_evals) {
      fold &= core::is_sorted_ring(engine);
      fold &= core::lrls_resolve(engine);
    }
  } while (seconds_since(oracle_start) < 0.2);
  const double oracle_per_eval = seconds_since(oracle_start) /
                                 static_cast<double>(oracle_evals);

  std::size_t tracked_evals = 0;
  const auto tracked_start = Clock::now();
  do {
    for (std::size_t i = 0; i < 4096; ++i, ++tracked_evals) {
      fold &= network.sorted_ring();
      fold &= network.lrls_resolve();
    }
  } while (seconds_since(tracked_start) < 0.2);
  const double tracked_per_eval = seconds_since(tracked_start) /
                                  static_cast<double>(tracked_evals);

  const double ratio = oracle_per_eval / tracked_per_eval;
  std::printf(
      "n=%lld oracle=%.2fus/eval tracked=%.1fns/eval ratio=%.0fx "
      "(min %.0fx) fold=%d\n",
      static_cast<long long>(n), oracle_per_eval * 1e6, tracked_per_eval * 1e9,
      ratio, min_ratio, static_cast<int>(fold));

  // Gate 2: a tracked convergence run and an oracle-driven twin must use
  // bit-identically many rounds (the tracker observes, it never steers).
  {
    const std::size_t small_n = 256;
    const std::size_t budget = 400 * small_n + 4000;
    const auto chain = [&] {
      return analysis::initial_network(topology::InitialShape::kRandomChain,
                                       small_n, static_cast<std::uint64_t>(seed));
    };
    core::SmallWorldNetwork tracked = chain();
    core::SmallWorldNetwork oracle = chain();
    const auto tracked_rounds = tracked.run_until_sorted_list(budget);
    const std::uint64_t start = oracle.engine().round();
    const bool oracle_ok = oracle.engine().run_until(
        [&] { return core::is_sorted_list(oracle.engine()); }, budget);
    if (!tracked_rounds.has_value() || !oracle_ok ||
        *tracked_rounds != oracle.engine().round() - start ||
        tracked.engine().counters().actions !=
            oracle.engine().counters().actions) {
      std::fprintf(stderr,
                   "FAIL: tracked convergence run diverged from the "
                   "oracle-driven twin\n");
      return 1;
    }
    std::printf("twin run: %llu rounds both ways, counters identical\n",
                static_cast<unsigned long long>(*tracked_rounds));
  }

  if (ratio < min_ratio) {
    std::fprintf(stderr,
                 "FAIL: predicate-evaluation ratio %.1fx below the %.1fx "
                 "floor — a per-round O(n) scan crept back into the tracked "
                 "path\n",
                 ratio, min_ratio);
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
