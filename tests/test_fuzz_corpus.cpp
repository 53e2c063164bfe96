// Tests for analysis/fuzz: the committed corpus replays deterministically,
// the JSON reproducer format round-trips, shrinking minimizes forced
// violations, and the oracles pass on healthy runs.
#include "analysis/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sssw::analysis {
namespace {

std::filesystem::path corpus_dir() {
  return std::filesystem::path(SSSW_SOURCE_DIR) / "tests" / "corpus";
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir()))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FuzzCorpus, CorpusIsNonEmpty) {
  // The corpus must hold both recorded verdict kinds: passing near-misses
  // and at least one (inverted-oracle) violation exercising the shrink path.
  bool has_ok = false;
  bool has_violation = false;
  for (const auto& path : corpus_files()) {
    const auto repro = parse_repro(slurp(path));
    ASSERT_TRUE(repro.has_value()) << path;
    (repro->expected.ok ? has_ok : has_violation) = true;
  }
  EXPECT_TRUE(has_ok);
  EXPECT_TRUE(has_violation);
}

TEST(FuzzCorpus, CoversTheCrashRecoveryDimension) {
  // ISSUE 5: the corpus must pin the crash-stop dimension from both sides —
  // a detector-on crash case that heals, and a forced crash-recovery
  // violation keeping the invert + replay pipeline honest for the new
  // oracle.
  bool has_crash_ok = false;
  bool has_crash_violation = false;
  for (const auto& path : corpus_files()) {
    const auto repro = parse_repro(slurp(path));
    ASSERT_TRUE(repro.has_value()) << path;
    if (!(repro->c.crash_frac > 0 && repro->c.crash_round > 0)) continue;
    EXPECT_TRUE(repro->c.protocol.detector.enabled) << path;
    if (repro->expected.ok)
      has_crash_ok = true;
    else if (repro->expected.oracle == FuzzOracle::kCrashRecovery)
      has_crash_violation = true;
  }
  EXPECT_TRUE(has_crash_ok);
  EXPECT_TRUE(has_crash_violation);
}

TEST(FuzzCorpus, EveryCaseReplaysToRecordedVerdict) {
  // The determinism contract end to end: a reproducer file pins the whole
  // verdict — outcome, violated oracle, violation round, rounds run, final
  // phase, and the EngineCounters digest.
  for (const auto& path : corpus_files()) {
    const auto repro = parse_repro(slurp(path));
    ASSERT_TRUE(repro.has_value()) << path;
    const FuzzVerdict verdict = run_case(repro->c, repro->options);
    EXPECT_EQ(verdict, repro->expected) << path;
  }
}

TEST(FuzzCorpus, JsonRoundTripsExactly) {
  for (const auto& path : corpus_files()) {
    const std::string text = slurp(path);
    const auto repro = parse_repro(text);
    ASSERT_TRUE(repro.has_value()) << path;
    const std::string serialized = to_json(*repro);
    const auto reparsed = parse_repro(serialized);
    ASSERT_TRUE(reparsed.has_value()) << path;
    EXPECT_EQ(reparsed->c, repro->c) << path;
    EXPECT_EQ(reparsed->expected, repro->expected) << path;
    EXPECT_EQ(reparsed->options.invert, repro->options.invert) << path;
    // Serialization is canonical: emitting the parsed form again is a
    // fixed point.
    EXPECT_EQ(to_json(*reparsed), serialized) << path;
    // ...and the committed file is that canonical form, byte for byte.
    EXPECT_EQ(serialized + "\n", text) << path;
  }
}

TEST(FuzzCorpus, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parse_repro("").has_value());
  EXPECT_FALSE(parse_repro("{}").has_value());             // missing expect_ok
  EXPECT_FALSE(parse_repro("not json").has_value());
  EXPECT_FALSE(parse_repro(R"({"expect_ok":true,"bogus_key":1})").has_value());
  EXPECT_FALSE(parse_repro(R"({"expect_ok":true,"n":2})").has_value());  // n < 4
  EXPECT_FALSE(
      parse_repro(R"({"expect_ok":true,"shape":"no-such-shape"})").has_value());
  EXPECT_FALSE(
      parse_repro(R"({"expect_ok":true,"n":8} trailing)").has_value());
  // Well-formed fields, but a fault plan the engine would abort on.
  EXPECT_FALSE(parse_repro(R"({"expect_ok":true,"n":8,"delay_probability":0.2,)"
                           R"("max_delay_rounds":0})")
                   .has_value());
  EXPECT_FALSE(parse_repro(R"({"expect_ok":true,"n":8,"replay_probability":0.2,)"
                           R"("replay_history":0})")
                   .has_value());
}

TEST(FuzzCorpus, ForcedViolationShrinksToMinimalCase) {
  // The hidden inversion hook makes every healthy case "fail", so shrinking
  // must walk it all the way down to the simplest case that still runs:
  // 4 nodes, synchronous, no faults, default protocol.
  util::Rng rng(77);
  FuzzCase big = sample_case(rng, 24);
  big.faults.duplicate_probability = 0.2;  // ensure something to strip
  FuzzOptions options;
  options.invert = FuzzOracle::kEventualRing;
  std::size_t steps = 0;
  const FuzzCase minimal = shrink_case(big, options, &steps);
  EXPECT_EQ(minimal.n, 4u);
  EXPECT_EQ(minimal.scheduler, sim::SchedulerKind::kSynchronous);
  EXPECT_FALSE(minimal.faults.active());
  EXPECT_EQ(minimal.protocol, core::Config{});
  EXPECT_GT(steps, 0u);
  // And the shrunk case still "fails" the same (inverted) oracle.
  const FuzzVerdict verdict = run_case(minimal, options);
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.oracle, FuzzOracle::kEventualRing);
}

TEST(FuzzCorpus, HealthyCasesPassAllOracles) {
  // A small deterministic sweep of the sampler: the protocol must survive
  // whatever the fault grid throws at it (this is the fuzz-smoke oracle,
  // kept in-tree so a regression fails fast without the CLI).
  util::Rng rng(20120521);
  for (int trial = 0; trial < 25; ++trial) {
    const FuzzCase c = sample_case(rng, 12);
    const FuzzVerdict verdict = run_case(c);
    EXPECT_TRUE(verdict.ok)
        << "trial " << trial << " violated " << to_string(verdict.oracle)
        << " at round " << verdict.violation_round;
  }
}

}  // namespace
}  // namespace sssw::analysis
