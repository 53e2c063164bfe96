// sssw_fuzz — the convergence fuzzer (src/analysis/fuzz.hpp as a tool).
//
//   ./sssw_fuzz --trials 500 --seed 20120521            # hunt
//   ./sssw_fuzz --replay repro.json                     # replay one case
//
// Hunt mode samples (n, shape, scheduler, FaultPlan, protocol, seed) cases,
// runs each against the oracles, and on a violation shrinks the case to a
// minimal reproducer, writes it to --out-dir as one-line JSON, and prints
// the exact replay command.  Exit status: 0 when every trial passed, 1 on
// any violation (so CI can gate on it), 2 on usage errors.
//
// Replay mode re-runs a reproducer file and compares every verdict field
// (including the trajectory digest) against what the file recorded —
// byte-identical determinism, checked end to end.
//
// --invert-oracle NAME is the test hook from ISSUE 3: it flips the named
// oracle's outcome so the shrink + reproduce pipeline can be demonstrated
// against a healthy protocol.  The inversion is recorded in the reproducer,
// so such files replay consistently too.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/fuzz.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace sssw;

namespace {

// Re-runs a reproducer's case and rewrites the file with the verdict the
// current build produces.  For sanctioned semantic changes (the corpus
// README's terms): the *case* is the pinned artifact; the recorded verdict
// is re-derived so the corpus keeps pinning the new trajectory.
int refresh(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  auto repro = analysis::parse_repro(buffer.str());
  if (!repro) {
    std::fprintf(stderr, "%s: not a valid reproducer\n", path.c_str());
    return 2;
  }
  const analysis::FuzzVerdict before = repro->expected;
  repro->expected = analysis::run_case(repro->c, repro->options);
  std::ofstream out(path, std::ios::trunc);
  out << analysis::to_json(*repro) << '\n';
  const bool same = before == repro->expected;
  std::printf("%s: %s (ok %d→%d, digest %llu→%llu)\n", path.c_str(),
              same ? "unchanged" : "re-recorded", before.ok ? 1 : 0,
              repro->expected.ok ? 1 : 0,
              static_cast<unsigned long long>(before.digest),
              static_cast<unsigned long long>(repro->expected.digest));
  return 0;
}

int replay(const std::string& path, bool paranoid) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto repro = analysis::parse_repro(buffer.str());
  if (!repro) {
    std::fprintf(stderr, "%s: not a valid reproducer\n", path.c_str());
    return 2;
  }
  // Paranoia is a runtime knob, not part of the recorded case: it cannot
  // change the verdict, only abort if the tracker and oracle disagree.
  repro->options.paranoid = paranoid;
  const analysis::FuzzVerdict verdict = analysis::run_case(repro->c, repro->options);
  const bool match = verdict == repro->expected;
  std::printf("%s: %s (oracle %s, %llu rounds, digest %llu) — %s\n", path.c_str(),
              verdict.ok ? "ok" : "VIOLATION",
              verdict.ok ? "-" : analysis::to_string(verdict.oracle),
              static_cast<unsigned long long>(verdict.rounds_run),
              static_cast<unsigned long long>(verdict.digest),
              match ? "matches recorded verdict" : "DIVERGES from recorded verdict");
  return match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t trials = 100;
  std::int64_t seed = 20120521;
  std::int64_t max_n = 24;
  std::string out_dir = ".";
  std::string replay_path;
  std::string refresh_path;
  std::string invert_name;
  bool no_shrink = false;
  bool emit_all = false;
  bool paranoid = false;
  util::Cli cli("convergence fuzzer for the self-stabilizing small-world protocol");
  cli.flag("trials", "number of fuzz cases to run", &trials);
  cli.flag("seed", "master seed for case sampling", &seed);
  cli.flag("max-n", "largest network size to sample (min 4)", &max_n);
  cli.flag("out-dir", "directory for reproducer JSON files", &out_dir);
  cli.flag("replay", "replay this reproducer file and exit", &replay_path);
  cli.flag("refresh",
           "re-run this reproducer and rewrite its recorded verdict in place "
           "(for sanctioned semantic changes; see tests/corpus/README.md)",
           &refresh_path);
  cli.flag("invert-oracle",
           "test hook: flip this oracle's outcome (phase-monotone | "
           "lrls-resolve | connectivity | eventual-ring | crash-recovery | "
           "lookup-liveness)",
           &invert_name);
  cli.flag("no-shrink", "report violations without shrinking", &no_shrink);
  cli.flag("emit-all",
           "also write a reproducer for every passing trial (corpus building)",
           &emit_all);
  cli.flag("paranoid",
           "cross-check the incremental invariant tracker against the "
           "recompute oracle on every round (aborts on divergence)",
           &paranoid);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  if (!replay_path.empty()) return replay(replay_path, paranoid);
  if (!refresh_path.empty()) return refresh(refresh_path);

  if (trials <= 0 || max_n < 4) {
    std::fprintf(stderr, "--trials must be positive and --max-n at least 4\n");
    return 2;
  }
  analysis::FuzzOptions options;
  options.paranoid = paranoid;
  if (!invert_name.empty()) {
    const auto oracle = analysis::oracle_from_string(invert_name);
    if (!oracle) {
      std::fprintf(stderr, "unknown oracle '%s'\n", invert_name.c_str());
      return 2;
    }
    options.invert = *oracle;
  }

  util::Rng rng(static_cast<std::uint64_t>(seed));
  std::int64_t violations = 0;
  for (std::int64_t trial = 0; trial < trials; ++trial) {
    const analysis::FuzzCase sampled =
        analysis::sample_case(rng, static_cast<std::size_t>(max_n));
    const analysis::FuzzVerdict verdict = analysis::run_case(sampled, options);
    if (verdict.ok) {
      if (emit_all) {
        const std::string path = out_dir + "/fuzz-" + std::to_string(seed) +
                                 "-" + std::to_string(trial) + ".json";
        std::ofstream out(path);
        out << analysis::to_json({sampled, verdict, options}) << "\n";
      }
      continue;
    }
    ++violations;

    std::size_t steps = 0;
    const analysis::FuzzCase minimal =
        no_shrink ? sampled : analysis::shrink_case(sampled, options, &steps);
    const analysis::FuzzRepro repro{minimal, analysis::run_case(minimal, options),
                                    options};
    const std::string path =
        out_dir + "/fuzz-" + std::to_string(seed) + "-" + std::to_string(trial) +
        ".json";
    std::ofstream out(path);
    out << analysis::to_json(repro) << "\n";
    std::printf(
        "trial %lld: %s violated at round %llu (n=%zu shape=%s scheduler=%s); "
        "shrunk in %zu steps → n=%zu; wrote %s\n  replay: %s\n",
        static_cast<long long>(trial), analysis::to_string(verdict.oracle),
        static_cast<unsigned long long>(verdict.violation_round), sampled.n,
        topology::to_string(sampled.shape), sim::to_string(sampled.scheduler),
        steps, minimal.n, path.c_str(), analysis::replay_cli(path).c_str());
  }

  std::printf("%lld/%lld trials passed (%lld violation%s)\n",
              static_cast<long long>(trials - violations),
              static_cast<long long>(trials), static_cast<long long>(violations),
              violations == 1 ? "" : "s");
  return violations == 0 ? 0 : 1;
}
