// Tests for the experiment-matrix sweep runner (analysis/sweep.hpp), the
// experiment catalog and its cell drivers (analysis/experiments.hpp), the
// report renderer (analysis/report.hpp), and the documentation contract:
// every catalog experiment is documented in doc/BENCHMARKS.md and owns
// exactly one generated table in EXPERIMENTS.md, so an experiment added
// without docs fails here rather than rotting silently.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/fuzz.hpp"
#include "analysis/report.hpp"
#include "analysis/sweep.hpp"
#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "support/cells.hpp"
#include "util/fnv.hpp"

namespace sssw::analysis {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Fresh scratch directory under the system temp dir, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() /
           (std::string("sssw_test_sweep_") + tag + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// --- Config parsing --------------------------------------------------------

TEST(SweepConfig, ParsesFullMatrix) {
  SweepParseError error;
  const auto config = parse_sweep_config(
      "# comment\n"
      "name = demo\n"
      "experiments = e1-convergence, e14-recovery:crash=0.25:mode=crash\n"
      "n = 16, 32\n"
      "shapes = star, random-chain\n"
      "schedulers = synchronous\n"
      "faults = none, dup:0.2\n"
      "ablations = full, no-shortcut\n"
      "seeds = 1, 2\n"
      "trials = 3\n"
      "jobs = 5\n"
      "max_rounds = 900\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error.to_string();
  EXPECT_EQ(config->name, "demo");
  ASSERT_EQ(config->experiments.size(), 2u);
  EXPECT_EQ(config->experiments[0].name, "e1-convergence");
  EXPECT_EQ(config->experiments[0].params, "");
  EXPECT_EQ(config->experiments[1].name, "e14-recovery");
  EXPECT_EQ(config->experiments[1].params, "crash=0.25;mode=crash");
  EXPECT_EQ(config->sizes, (std::vector<std::size_t>{16, 32}));
  ASSERT_EQ(config->shapes.size(), 2u);
  ASSERT_EQ(config->faults.size(), 2u);
  EXPECT_EQ(config->faults[1].canonical, "dup:0.2");
  EXPECT_EQ(config->trials, 3u);
  EXPECT_EQ(config->jobs, 5u);
  EXPECT_EQ(config->max_rounds, 900u);
}

TEST(SweepConfig, DefaultsApplyWhenKeysOmitted) {
  SweepParseError error;
  const auto config =
      parse_sweep_config("name = tiny\nexperiments = e1-convergence\n", &error);
  ASSERT_TRUE(config.has_value()) << error.to_string();
  EXPECT_EQ(config->sizes, (std::vector<std::size_t>{64}));
  ASSERT_EQ(config->shapes.size(), 1u);
  ASSERT_EQ(config->schedulers.size(), 1u);
  ASSERT_EQ(config->faults.size(), 1u);
  EXPECT_EQ(config->faults[0].canonical, "none");
  ASSERT_EQ(config->ablations.size(), 1u);
  EXPECT_EQ(config->ablations[0].canonical, "full");
  EXPECT_EQ(config->seeds, (std::vector<std::uint64_t>{20120521}));
  EXPECT_EQ(config->trials, 4u);
  EXPECT_EQ(config->jobs, 2u);
}

struct BadLine {
  std::string text;
  std::size_t line;        // expected 1-based line of the error
  std::string fragment;    // expected substring of the message
};

TEST(SweepConfig, ErrorsCarryLineNumbers) {
  const std::string header = "name = x\nexperiments = e1-convergence\n";
  const std::vector<BadLine> cases = {
      {"just-some-words\n", 1, "expected 'key = value'"},
      {header + "colour = blue\n", 3, "unknown key"},
      {header + "name = again\n", 3, "duplicate key"},
      {header + "n = 12, frog\n", 3, "bad network size"},
      {header + "shapes = moebius\n", 3, "unknown shape"},
      {header + "schedulers = psychic\n", 3, "unknown scheduler"},
      {header + "faults = dup\n", 3, "bad fault spec"},
      {header + "faults = partition:0.5:2\n", 3, "bad fault spec"},
      {header + "ablations = eps:zero\n", 3, "unknown ablation"},
      {"name = x\nexperiments = e99-nope\n", 2, "unknown experiment"},
      {"name = x\nexperiments = e1-convergence:speed=11\n", 2, "param"},
      {"experiments = e1-convergence\n", 0, "name"},
      {"name = x\n", 0, "experiments"},
  };
  for (const BadLine& bad : cases) {
    SweepParseError error;
    const auto config = parse_sweep_config(bad.text, &error);
    EXPECT_FALSE(config.has_value()) << "accepted: " << bad.text;
    EXPECT_EQ(error.line, bad.line) << error.to_string() << "\nfor: " << bad.text;
    EXPECT_NE(error.message.find(bad.fragment), std::string::npos)
        << "message `" << error.message << "` lacks `" << bad.fragment << "`";
  }
}

TEST(SweepConfig, FaultSpecsCanonicalize) {
  const auto spec = parse_fault_spec("delay:0.50:3");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->canonical, "delay:0.5:3");  // shortest round-trip form
  EXPECT_DOUBLE_EQ(spec->plan.delay_probability, 0.5);
  EXPECT_EQ(spec->plan.max_delay_rounds, 3u);
  EXPECT_FALSE(spec->oldest_last());

  const auto oldest = parse_fault_spec("oldest-last:4");
  ASSERT_TRUE(oldest.has_value());
  EXPECT_TRUE(oldest->oldest_last());
  EXPECT_EQ(oldest->oldest_last_hold, 4u);
  EXPECT_FALSE(parse_fault_spec("dup").has_value());
}

TEST(SweepConfig, MultilinkCountIsBounded) {
  // A lookup hop routes on l, r, ring and at most core::kMaxLrlCount links;
  // a larger count would build nodes that probe links no lookup uses.
  const auto most = parse_ablation_spec("multilink:13");
  ASSERT_TRUE(most.has_value());
  EXPECT_EQ(most->config.lrl_count, core::kMaxLrlCount);
  EXPECT_EQ(most->canonical, "multilink:13");
  EXPECT_FALSE(parse_ablation_spec("multilink:14").has_value());
  EXPECT_FALSE(parse_ablation_spec("multilink:0").has_value());
  EXPECT_TRUE(parse_ablation_spec("probe-interval:14").has_value());
}

// Each experiment param has a declared kind; the parser rejects a value of
// the wrong kind or out of range and names the config line.
void expect_rejected(const std::string& entry, const std::string& fragment) {
  SweepParseError error;
  const auto config =
      parse_sweep_config("name = x\nexperiments = " + entry + "\n", &error);
  EXPECT_FALSE(config.has_value()) << "accepted: " << entry;
  EXPECT_EQ(error.line, 2u) << error.to_string();
  EXPECT_NE(error.message.find(fragment), std::string::npos)
      << "message `" << error.message << "` lacks `" << fragment << "`";
}

TEST(SweepConfig, RejectsANumberThatDoesNotParse) {
  expect_rejected("e14-recovery:crash=abc:mode=crash", "'crash' wants a number");
  expect_rejected("e14-recovery:loss=0.05x", "'loss' wants a number");
  expect_rejected("e15-service:crash=nan", "'crash' wants a number");
}

TEST(SweepConfig, RejectsANumberOutOfRange) {
  expect_rejected("e14-recovery:crash=1", "'crash' wants a number in [0, 1)");
  expect_rejected("a4-loss:loss=-0.1", "'loss' wants a number in [0, 1)");
}

TEST(SweepConfig, RejectsAnIntegerOutOfRange) {
  // Unchecked, k = 0 reaches NodeStore's construction check and aborts the
  // whole sweep after other cells have run.
  expect_rejected("e15-service:k=0", "'k' wants an integer in 1..13");
  expect_rejected("e15-service:k=14", "'k' wants an integer in 1..13");
  expect_rejected("e15-service:detector=2", "'detector' wants an integer");
}

TEST(SweepConfig, RejectsAFractionalInteger) {
  expect_rejected("e15-service:retries=1.5", "'retries' wants an integer");
  expect_rejected("e7-storm:interval=1e2", "'interval' wants an integer");
}

TEST(SweepConfig, RejectsAWordOutsideItsSet) {
  // Unchecked, a mistyped process runs the CFL reference and records "ok".
  expect_rejected("e3-linklen:process=protcol",
                  "'process' wants one of cfl|protocol");
  expect_rejected("e14-recovery:crash=0.1:mode=crsh",
                  "'mode' wants one of crash|leave");
}

TEST(SweepConfig, RejectsAParamNoCommittedMatrixUses) {
  expect_rejected("e15-service:k=8:rate=-4", "takes no param 'rate'");
  expect_rejected("e5-routing:pairs=64", "takes no param 'pairs'");
}

TEST(SweepConfig, ValidationKeepsTheCanonicalParamsText) {
  SweepParseError error;
  const auto config = parse_sweep_config(
      "name = x\nexperiments = e15-service:crash=0.1:k=8:retries=0, "
      "e14-recovery:crash=0.1:loss=0.05:mode=crash\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error.to_string();
  EXPECT_EQ(config->experiments[0].params, "crash=0.1;k=8;retries=0");
  EXPECT_EQ(config->experiments[1].params, "crash=0.1;loss=0.05;mode=crash");
}

TEST(SweepConfig, EveryCommittedMatrixParses) {
  std::size_t configs = 0;
  for (const auto& entry : fs::directory_iterator(
           std::string(SSSW_SOURCE_DIR) + "/bench/experiments")) {
    if (entry.path().extension() != ".cfg") continue;
    ++configs;
    SweepParseError error;
    EXPECT_TRUE(load_sweep_config(entry.path(), &error).has_value())
        << entry.path() << ": " << error.to_string();
  }
  EXPECT_GE(configs, 2u);
}

// --- Expansion, collapsing, hashing ----------------------------------------

SweepConfig tiny_config(const std::string& seeds = "seeds = 7\n") {
  SweepParseError error;
  const auto config = parse_sweep_config(
      "name = tiny\nexperiments = e1-convergence\nn = 8\ntrials = 1\n" + seeds,
      &error);
  EXPECT_TRUE(config.has_value()) << error.to_string();
  return *config;
}

TEST(SweepCells, UnusedAxesCollapseBeforeHashing) {
  // e13-faults ignores the shape axis: 3 shapes must expand to ONE cell.
  SweepParseError error;
  const auto config = parse_sweep_config(
      "name = c\nexperiments = e13-faults\n"
      "shapes = star, sorted-list, random-chain\nfaults = dup:0.2\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error.to_string();
  const auto cells = expand_cells(*config);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].shape, topology::InitialShape::kRandomChain);  // default
  EXPECT_EQ(cells[0].fault, "dup:0.2");
}

TEST(SweepCells, OldestLastFaultPinsScheduler) {
  SweepParseError error;
  const auto config = parse_sweep_config(
      "name = c\nexperiments = e13-faults\nfaults = oldest-last:4\n", &error);
  ASSERT_TRUE(config.has_value()) << error.to_string();
  const auto cells = expand_cells(*config);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].scheduler, sim::SchedulerKind::kAdversarialOldestLast);
}

TEST(SweepCells, HashIsStableAndKeyed) {
  const auto cells = expand_cells(tiny_config());
  ASSERT_EQ(cells.size(), 1u);
  const SweepCell& cell = cells[0];
  // The hash is a pure function of the canonical key: recomputing from an
  // independently constructed identical cell must agree, and any axis change
  // must move it.  The literal value is pinned so a hashing change (which
  // would orphan every results/runs directory) is a deliberate act.
  EXPECT_EQ(cell_hash(cell), cell_hash(cells[0]));
  EXPECT_EQ(cell_key(cell),
            "experiment=e1-convergence|params=|n=8|shape=random-chain|"
            "scheduler=synchronous|fault=none|ablation=full|seed=7|trials=1|"
            "max_rounds=0");
  SweepCell moved = cell;
  moved.seed = 8;
  EXPECT_NE(cell_hash(moved), cell_hash(cell));
  EXPECT_EQ(cell_hash(cell).size(), 16u);
}

TEST(SweepCells, ChangedSeedListOnlyAddsNewCells) {
  const auto before = expand_cells(tiny_config());
  const auto after = expand_cells(tiny_config("seeds = 7, 8\n"));
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 2u);
  std::set<std::string> before_hashes, after_hashes;
  for (const auto& cell : before) before_hashes.insert(cell_hash(cell));
  for (const auto& cell : after) after_hashes.insert(cell_hash(cell));
  for (const auto& hash : before_hashes)
    EXPECT_TRUE(after_hashes.contains(hash))
        << "old cell vanished when the seed list grew";
}

// --- Meta JSON round-trips -------------------------------------------------

TEST(SweepMetaJson, CellMetaRoundTrips) {
  CellMeta meta;
  meta.cell = expand_cells(tiny_config())[0];
  meta.hash = cell_hash(meta.cell);
  meta.provenance = {"0123abc", "deadbeefdeadbeef", "cpus=2, cc=test"};
  meta.status = "ok";
  meta.wall_seconds = 1.5;
  meta.metrics = {{"rounds", 12.0}, {"converged", 1.0}};
  const std::string json = to_json(meta);
  const auto parsed = parse_cell_meta(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->cell, meta.cell);
  EXPECT_EQ(parsed->hash, meta.hash);
  EXPECT_EQ(parsed->provenance.git_sha, "0123abc");
  EXPECT_EQ(parsed->provenance.config_hash, "deadbeefdeadbeef");
  EXPECT_EQ(parsed->status, "ok");
  EXPECT_TRUE(parsed->ok());
  ASSERT_EQ(parsed->metrics.size(), 2u);
  EXPECT_EQ(parsed->metrics[0].first, "rounds");
  EXPECT_DOUBLE_EQ(parsed->metrics[0].second, 12.0);
}

TEST(SweepMetaJson, CellMetaKeeps64BitIntegersExact) {
  // A sweep config accepts any uint64 seed, so seeds and budgets must read
  // back exactly: through a double, 2^53 + 1 becomes 2^53 and UINT64_MAX
  // rounds up past the type's range.
  for (const std::uint64_t big :
       {(std::uint64_t{1} << 53) + 1, std::numeric_limits<std::uint64_t>::max()}) {
    CellMeta meta;
    meta.cell = expand_cells(tiny_config())[0];
    meta.cell.seed = big;
    meta.cell.max_rounds = big;
    meta.hash = cell_hash(meta.cell);
    meta.status = "ok";
    const auto parsed = parse_cell_meta(to_json(meta));
    ASSERT_TRUE(parsed.has_value()) << big;
    EXPECT_EQ(parsed->cell.seed, big);
    EXPECT_EQ(parsed->cell.max_rounds, big);
    EXPECT_EQ(parsed->cell, meta.cell);
  }
}

TEST(SweepMetaJson, SweepMetaRoundTrips) {
  SweepMeta meta;
  meta.name = "tiny";
  meta.seeds = {7, 8};
  meta.planned = 2;
  meta.provenance = {"sha", "hash16", "machine"};
  const auto parsed = parse_sweep_meta(to_json(meta));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "tiny");
  EXPECT_EQ(parsed->seeds, meta.seeds);
  EXPECT_EQ(parsed->planned, 2u);
  EXPECT_EQ(parsed->provenance.config_hash, "hash16");
}

TEST(SweepMetaJson, AnnotateProvenanceInsertsThenReplaces) {
  const Provenance first{"sha-one", "cfg-one", "machine-one"};
  const Provenance second{"sha-two", "cfg-two", "machine-two"};
  const std::string bare = "{\n  \"results\": {\"ratio\": 21.5},\n  \"n\": 512\n}\n";
  const auto once = annotate_provenance(bare, first);
  ASSERT_TRUE(once.has_value());
  EXPECT_NE(once->find("\"git_sha\": \"sha-one\""), std::string::npos) << *once;
  EXPECT_NE(once->find("\"ratio\": 21.5"), std::string::npos);
  const auto twice = annotate_provenance(*once, second);
  ASSERT_TRUE(twice.has_value());
  EXPECT_NE(twice->find("sha-two"), std::string::npos);
  EXPECT_EQ(twice->find("sha-one"), std::string::npos) << *twice;
  EXPECT_NE(twice->find("\"ratio\": 21.5"), std::string::npos);
  // Replacing is idempotent on shape: annotating twice == annotating once.
  EXPECT_EQ(*twice, *annotate_provenance(bare, second));
  EXPECT_FALSE(annotate_provenance("not json", first).has_value());
}

// --- The experiment catalog ------------------------------------------------

TEST(ExperimentCatalog, EveryDescriptorIsWellFormed) {
  std::set<std::string> names;
  for (const ExperimentDescriptor& exp : all_experiments()) {
    EXPECT_TRUE(names.insert(std::string(exp.name)).second)
        << "duplicate experiment " << exp.name;
    EXPECT_FALSE(std::string(exp.claim).empty()) << exp.name;
    for (const ParamSpec& param : exp.params) {
      EXPECT_FALSE(param.key.empty()) << exp.name;
      if (param.kind == ParamSpec::Kind::kWord)
        EXPECT_FALSE(param.words.empty()) << exp.name << ":" << param.key;
      else
        EXPECT_LT(param.min, param.max) << exp.name << ":" << param.key;
    }
    EXPECT_NE(exp.run, nullptr) << exp.name;
    EXPECT_EQ(find_experiment(exp.name), &exp);
  }
  EXPECT_EQ(find_experiment("e99-nope"), nullptr);
}

TEST(ExperimentCatalog, EveryDescriptorRunsASmallCell) {
  // Every driver, at its default params, on one small cell with one trial.
  for (const ExperimentDescriptor& exp : all_experiments()) {
    SweepCell cell;
    cell.experiment = std::string(exp.name);
    cell.n = 32;
    cell.trials = 1;
    cell.seed = 7;
    const CellResult result = exp.run(cell, nullptr);
    EXPECT_TRUE(result.error.empty()) << exp.name << ": " << result.error;
    EXPECT_FALSE(result.metrics.empty()) << exp.name;
  }
}

TEST(ExperimentCatalog, ParallelTrialCellsRepeatExactly) {
  // These experiments run their trials on the shared pool and fold them in
  // trial order, so a cell repeats exactly: same metrics, same registry.
  for (const char* name :
       {"e1b-phases", "e13-faults", "e14-recovery", "e15-service"}) {
    std::vector<std::pair<std::string, double>> metrics[2];
    std::string lines[2];
    for (int pass = 0; pass < 2; ++pass) {
      SweepCell cell;
      cell.experiment = name;
      cell.n = 32;
      cell.trials = 2;
      cell.seed = 20120521;
      obs::Registry registry;
      const CellResult result = find_experiment(name)->run(cell, &registry);
      ASSERT_TRUE(result.error.empty()) << name << ": " << result.error;
      metrics[pass] = result.metrics;
      lines[pass] = obs::to_jsonl(registry, 0);
    }
    EXPECT_EQ(metrics[0], metrics[1]) << name;
    EXPECT_EQ(lines[0], lines[1]) << name;
  }
}

TEST(ExperimentCatalog, SmallCellMetricsArePinned) {
  // One small cell per driver branch (n = 32, 2 trials), its metrics folded
  // name by name, with the bits of each value, and then its registry line,
  // into one FNV-1a digest recorded literally: a driver that moves any
  // number, or any count it exports, shows up here.
  struct Pinned {
    const char* experiment;
    const char* params;
    const char* ablation;
    sim::SchedulerKind scheduler;
    const char* fault;
    std::uint64_t digest;
  };
  using enum sim::SchedulerKind;
  const Pinned pins[] = {
      {"e1-convergence", "", "full", kSynchronous, "none",
       0x559b8e1c54b022f7ull},
      {"a1-ablations", "", "no-move-forget", kSynchronous, "none",
       0x4ab463ec255d8e12ull},
      {"a1-ablations", "", "full", kRandomAsync, "none",
       0x04ea3eef81c7b0c2ull},
      {"e1b-phases", "", "full", kSynchronous, "none",
       0x48fa2a9f3ca2fa11ull},
      {"e1c-service", "", "full", kSynchronous, "none",
       0x2507b9939ec11f6full},
      {"e3-linklen", "process=cfl", "eps:0.5", kSynchronous, "none",
       0xbd1423f4ede663c7ull},
      {"e3-linklen", "process=protocol", "eps:0.5", kSynchronous, "none",
       0xf41f4c4038074536ull},
      {"e6-churn", "", "full", kSynchronous, "none",
       0xb4a3dc75a2906706ull},
      {"e7-storm", "interval=4", "full", kSynchronous, "none",
       0x56f861cb666a3e48ull},
      {"e9-robustness", "model=chord", "full", kSynchronous, "none",
       0xd80fc24861919226ull},
      {"e9-robustness", "model=kleinberg", "full", kSynchronous, "none",
       0x9fcaed95db4fb630ull},
      {"e13-faults", "", "full", kSynchronous, "none",
       0xf02d37fe0909b796ull},
      {"e13-faults", "", "full", kSynchronous, "partition:0.5:2:4",
       0x44d01ca7e133842full},
      {"e13-faults", "", "full", kSynchronous, "delay:0.2:3",
       0x46d92d9caa291d4bull},
      {"e13-faults", "", "full", kAdversarialOldestLast, "oldest-last:4",
       0x5910a9b02a7b59f6ull},
      {"e14-recovery", "mode=crash", "full", kSynchronous, "none",
       0xe60db8fd5204516dull},
      {"e14-recovery", "mode=leave", "full", kSynchronous, "none",
       0x3423cb37fa366357ull},
      {"e14-recovery", "loss=0.05", "full", kSynchronous, "none",
       0xbc78211c15d5727eull},
      {"e14-recovery", "crash=0", "full", kSynchronous, "none",
       0x02e4f604d421e962ull},
  };
  for (const Pinned& pin : pins) {
    SweepCell cell = small_cell(pin.experiment, pin.params, 32);
    cell.ablation = pin.ablation;
    cell.scheduler = pin.scheduler;
    cell.fault = pin.fault;
    obs::Registry registry;
    const CellResult result = find_experiment(pin.experiment)->run(cell, &registry);
    ASSERT_TRUE(result.error.empty()) << pin.experiment << ": " << result.error;
    util::Fnv1a digest;
    for (const auto& [name, value] : result.metrics)
      digest.add_bytes(name).add_word(std::bit_cast<std::uint64_t>(value));
    digest.add_bytes(obs::to_jsonl(registry, 0));
    EXPECT_EQ(digest.value(), pin.digest)
        << pin.experiment << " " << pin.params << " " << pin.ablation << " "
        << pin.fault << ": 0x" << std::hex << digest.value();
  }
}

// --- Invariants the drivers' numbers must keep -----------------------------

TEST(ExperimentDrivers, EveryProbeReachesItsTargetOnAStabilizedRing) {
  // Lemma 4.5: in the stable state no probe stops early to repair a link.
  const auto m = run_cell("e4-probing", "", 128);
  EXPECT_EQ(metric(m, "reached"), 1.0);
  EXPECT_GT(metric(m, "hops_mean"), 1.0);
  EXPECT_GT(metric(m, "lrl_hops_mean"), 0.0);
}

TEST(ExperimentDrivers, GreedyRoutingSucceedsOnEveryNavigableModel) {
  for (const char* model :
       {"stationary", "lookahead", "kleinberg", "ring", "chord"})
    EXPECT_EQ(metric(run_cell("e5-routing", std::string("model=") + model, 128),
                     "success"),
              1.0)
        << model;
  EXPECT_EQ(metric(run_cell("e5b-in-engine", "", 32), "success"), 1.0);
  // A plain ring routes in n/4 hops on average; greedy never beats it there.
  EXPECT_NEAR(metric(run_cell("e5-routing", "model=ring", 128), "hops_mean"),
              32.0, 4.0);
}

TEST(ExperimentDrivers, TorusModelsRouteEverywhere) {
  // Lattice edges guarantee a strictly closer neighbour at every hop.
  for (const char* model : {"ring", "torus", "cfl2d", "lattice"})
    EXPECT_EQ(metric(run_cell("e11-navigability", std::string("model=") + model,
                              64),
                     "success"),
              1.0)
        << model;
}

TEST(ExperimentDrivers, LookupsAllSucceedOnceTheRingHasFormed) {
  const auto m = run_cell("e1c-service", "", 64);
  EXPECT_EQ(metric(m, "success_ring"), 1.0);
  EXPECT_GT(metric(m, "ring_round"), 0.0);
  EXPECT_LE(metric(m, "success_t0"), metric(m, "success_ring"));
}

TEST(ExperimentDrivers, OneCrashHealsAfterTheLeaveDoesPlusDetection) {
  const auto m = run_cell("e7c-crash", "", 32);
  EXPECT_EQ(metric(m, "leave_healed"), 1.0);
  EXPECT_EQ(metric(m, "crash_healed"), 1.0);
  EXPECT_GT(metric(m, "detection_latency"), 0.0);
}

TEST(ExperimentDrivers, StableTrafficSharesAddUp) {
  const auto m = run_cell("e8-overhead", "", 64);
  const double shares = metric(m, "lin_share") + metric(m, "lrl_share") +
                        metric(m, "ring_share") + metric(m, "probe_share");
  EXPECT_GT(metric(m, "msgs_per_node_round"), 0.0);
  EXPECT_NEAR(shares, 1.0, 1e-9);  // no detector or lookups in this cell
  EXPECT_EQ(metric(m, "success"), 1.0);
  EXPECT_GT(metric(m, "stabilizing_rate"), 0.0);
}

TEST(ExperimentDrivers, SurvivalMatchesTheClosedForm) {
  const auto m = run_cell("e10-forget", "", 128);
  EXPECT_LT(metric(m, "survival_err"), 0.02);
  EXPECT_GE(metric(m, "forgets_per_node"), 1.0);
}

TEST(ExperimentDrivers, ChordStaysConnectedUnderModestFailures) {
  const auto m = run_cell("e9-robustness", "model=chord", 128);
  EXPECT_EQ(metric(m, "lcc_10"), 1.0);
  EXPECT_GT(metric(m, "degree"), 6.0);
}

TEST(ExperimentDrivers, LosslessAndBaselineRunsAllConverge) {
  EXPECT_EQ(metric(run_cell("a4-loss", "loss=0", 32), "converged"), 1.0);
  for (const char* overlay : {"linearization", "fingers"})
    EXPECT_EQ(metric(run_cell("a5-baselines", std::string("overlay=") + overlay,
                              32),
                     "converged"),
              1.0)
        << overlay;
}

// --- End-to-end: run, resume, report ---------------------------------------

TEST(SweepRun, ExecutesResumesAndRenders) {
  TempDir tmp("run");
  const SweepConfig config = tiny_config();

  SweepRunOptions options;
  options.out_root = tmp.path.string();
  options.jobs = 1;

  const SweepSummary first = run_sweep(config, options);
  EXPECT_EQ(first.planned, 1u);
  EXPECT_EQ(first.executed, 1u);
  EXPECT_EQ(first.skipped, 0u);
  EXPECT_EQ(first.failed, 0u);
  ASSERT_TRUE(fs::exists(fs::path(first.exp_dir) / "sweep.json"));

  // Resume: every completed cell must be skipped, nothing re-executed.
  options.resume = true;
  const SweepSummary second = run_sweep(config, options);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.skipped, 1u);

  // Growing the seed list and resuming runs ONLY the new cell.
  const SweepConfig grown = tiny_config("seeds = 7, 8\n");
  const SweepSummary third = run_sweep(grown, options);
  EXPECT_EQ(third.planned, 2u);
  EXPECT_EQ(third.executed, 1u);
  EXPECT_EQ(third.skipped, 1u);

  // Report: loads both cells and renders byte-stably.
  const auto run = load_sweep_run(third.exp_dir);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->cells.size(), 2u);
  const std::string csv = render_runs_csv(*run);
  EXPECT_EQ(csv, render_runs_csv(*run));
  EXPECT_NE(csv.find("e1-convergence"), std::string::npos);
  const std::string html = render_index_html(*run);
  EXPECT_EQ(html, render_index_html(*run));
  EXPECT_NE(html.find("<svg"), std::string::npos);
  const std::string table = render_markdown_table(*run, "e1-convergence");
  EXPECT_NE(table.find("| seed |"), std::string::npos) << table;
  EXPECT_NE(table.find("tools/sssw_sweep"), std::string::npos)
      << "caption must carry the regeneration command:\n" << table;
}

TEST(SweepRun, JobsDoNotChangeResults) {
  // At jobs > 1 the cells run on their own threads; which thread ran which
  // cell, and in what order they finished, must not reach the artifacts.
  const SweepConfig config = tiny_config("seeds = 7, 8\n");
  std::string csv[2];
  std::string table[2];
  for (const std::size_t jobs : {1u, 2u}) {
    TempDir tmp(jobs == 1 ? "jobs1" : "jobs2");
    SweepRunOptions options;
    options.out_root = tmp.path.string();
    options.jobs = jobs;
    const SweepSummary summary = run_sweep(config, options);
    EXPECT_EQ(summary.executed, 2u);
    EXPECT_EQ(summary.failed, 0u);
    const auto run = load_sweep_run(summary.exp_dir);
    ASSERT_TRUE(run.has_value());
    csv[jobs - 1] = render_runs_csv(*run);
    table[jobs - 1] = render_markdown_table(*run, "e1-convergence");
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(table[0], table[1]);
  EXPECT_NE(table[0].find("| seed |"), std::string::npos) << table[0];
}

TEST(SweepRun, DryRunWritesNothing) {
  TempDir tmp("dry");
  SweepRunOptions options;
  options.out_root = tmp.path.string();
  options.dry_run = true;
  const SweepSummary summary = run_sweep(tiny_config(), options);
  EXPECT_EQ(summary.planned, 1u);
  EXPECT_EQ(summary.executed, 0u);
  EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(SweepReport, OrdersCellsByNumericN) {
  // String order would read 1024, 128, 64; every artifact must read 64, 128,
  // 1024, and a table with one n must keep its order.
  TempDir tmp("order");
  SweepMeta sweep;
  sweep.name = "order";
  sweep.seeds = {7};
  sweep.planned = 3;
  sweep.provenance = {"sha", "hash16", "machine"};
  std::ofstream(tmp.path / "sweep.json") << to_json(sweep);
  for (const std::size_t n : {1024u, 64u, 128u}) {
    CellMeta meta;
    meta.cell = expand_cells(tiny_config())[0];
    meta.cell.n = n;
    meta.hash = cell_hash(meta.cell);
    meta.status = "ok";
    meta.metrics = {{"rounds", static_cast<double>(n)}};
    fs::create_directories(tmp.path / meta.hash);
    std::ofstream(tmp.path / meta.hash / "meta.json") << to_json(meta);
  }
  const auto run = load_sweep_run(tmp.path);
  ASSERT_TRUE(run.has_value());
  ASSERT_EQ(run->cells.size(), 3u);
  EXPECT_EQ(run->cells[0].cell.n, 64u);
  EXPECT_EQ(run->cells[1].cell.n, 128u);
  EXPECT_EQ(run->cells[2].cell.n, 1024u);
  const std::string table = render_markdown_table(*run, "e1-convergence");
  EXPECT_LT(table.find("| 64 |"), table.find("| 128 |")) << table;
  EXPECT_LT(table.find("| 128 |"), table.find("| 1024 |")) << table;
  const std::string csv = render_runs_csv(*run);
  EXPECT_LT(csv.find(",64,"), csv.find(",128,")) << csv;
  EXPECT_LT(csv.find(",128,"), csv.find(",1024,")) << csv;
}

TEST(SweepReport, OrdersParamsAndAblationsByValue) {
  // String order would read loss = 0.05, 0.1, 0.5, 0 and probe-interval:16
  // before 2; every numeric run of the cell key compares by value instead.
  TempDir tmp("byvalue");
  SweepParseError error;
  const auto config = parse_sweep_config(
      "name = byvalue\n"
      "experiments = a4-loss:loss=0.5, a4-loss:loss=0, a4-loss:loss=0.1, "
      "a4-loss:loss=0.05, e8-overhead\n"
      "n = 64\nablations = probe-interval:16, probe-interval:2, "
      "probe-interval:4\nseeds = 7\ntrials = 1\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error.to_string();
  const std::vector<SweepCell> cells = expand_cells(*config);
  SweepMeta sweep;
  sweep.name = "byvalue";
  sweep.seeds = {7};
  sweep.planned = cells.size();
  sweep.provenance = {"sha", "hash16", "machine"};
  std::ofstream(tmp.path / "sweep.json") << to_json(sweep);
  for (const SweepCell& cell : cells) {
    CellMeta meta;
    meta.cell = cell;
    meta.hash = cell_hash(cell);
    meta.status = "ok";
    meta.metrics = {{"rounds", 1.0}};
    fs::create_directories(tmp.path / meta.hash);
    std::ofstream(tmp.path / meta.hash / "meta.json") << to_json(meta);
  }
  const auto run = load_sweep_run(tmp.path);
  ASSERT_TRUE(run.has_value());
  std::vector<std::string> order;
  for (const CellMeta& meta : run->cells)
    order.push_back(meta.cell.experiment == "a4-loss" ? meta.cell.params
                                                      : meta.cell.ablation);
  // Catalog order first (E8 before A4), then the cell key by value.
  EXPECT_EQ(order, (std::vector<std::string>{
                       "probe-interval:2", "probe-interval:4",
                       "probe-interval:16", "loss=0", "loss=0.05", "loss=0.1",
                       "loss=0.5"}));
  const std::string csv = render_runs_csv(*run);
  EXPECT_LT(csv.find(",loss=0,"), csv.find(",loss=0.05,")) << csv;
  EXPECT_LT(csv.find("probe-interval:2,"), csv.find("probe-interval:16,")) << csv;
}

// --- Round budgets -----------------------------------------------------------

TEST(RoundBudget, E13MatchesTheFuzzer) {
  // e13-faults' delay:0.2:3 cell under the adversarial-oldest-last
  // scheduler and the fuzz case with the same plan get one budget:
  // (400n + 4000) × (1 + 3 rounds of extra delay + the default hold of 3).
  SweepCell cell;
  cell.experiment = "e13-faults";
  cell.n = 64;
  cell.scheduler = sim::SchedulerKind::kAdversarialOldestLast;
  cell.fault = "delay:0.2:3";
  FuzzCase c;
  c.n = 64;
  c.scheduler = sim::SchedulerKind::kAdversarialOldestLast;
  c.faults.delay_probability = 0.2;
  c.faults.max_delay_rounds = 3;
  c.adversary_delay = 3;
  EXPECT_EQ(round_bound(c), (400u * 64 + 4000) * 7);
  EXPECT_EQ(cell_budget(cell), round_bound(c));
}

// --- Markdown patching -----------------------------------------------------

TEST(ReportPatch, ReplacesMarkedBlockOnly) {
  std::string doc =
      "intro\n"
      "<!-- sssw:table e1-convergence -->\n"
      "stale\n"
      "<!-- /sssw:table -->\n"
      "outro\n";
  ASSERT_TRUE(patch_marked_block(&doc, "e1-convergence", "fresh\n"));
  EXPECT_EQ(doc,
            "intro\n"
            "<!-- sssw:table e1-convergence -->\n"
            "fresh\n"
            "<!-- /sssw:table -->\n"
            "outro\n");
  EXPECT_FALSE(patch_marked_block(&doc, "e2-absent", "x\n"));
}

// --- doc/BENCHMARKS.md coverage --------------------------------------------

TEST(BenchmarksDoc, EveryExperimentAndBenchIsDocumented) {
  const std::string doc =
      read_file(std::string(SSSW_SOURCE_DIR) + "/doc/BENCHMARKS.md");
  ASSERT_FALSE(doc.empty());
  for (const ExperimentDescriptor& exp : all_experiments())
    EXPECT_NE(doc.find('`' + std::string(exp.name) + '`'), std::string::npos)
        << "experiment `" << exp.name << "` is not documented in doc/BENCHMARKS.md";

  // Every bench binary registered in bench/CMakeLists.txt.
  const std::string cmake =
      read_file(std::string(SSSW_SOURCE_DIR) + "/bench/CMakeLists.txt");
  for (std::size_t pos = 0;
       (pos = cmake.find("add_executable(", pos)) != std::string::npos;) {
    pos += std::string("add_executable(").size();
    const std::string target = cmake.substr(pos, cmake.find(' ', pos) - pos);
    EXPECT_NE(doc.find('`' + target + '`'), std::string::npos)
        << "bench target `" << target << "` is not documented in doc/BENCHMARKS.md";
  }

  // Every catalog experiment owns exactly one generated table in
  // EXPERIMENTS.md, and every table names a catalog experiment.
  const std::string experiments =
      read_file(std::string(SSSW_SOURCE_DIR) + "/EXPERIMENTS.md");
  const std::string open = "<!-- sssw:table ";
  std::map<std::string, int> blocks;
  for (std::size_t pos = 0;
       (pos = experiments.find(open, pos)) != std::string::npos;) {
    pos += open.size();
    const std::string name =
        experiments.substr(pos, experiments.find(' ', pos) - pos);
    ++blocks[name];
    EXPECT_NE(find_experiment(name), nullptr)
        << "EXPERIMENTS.md block `" << name << "` names no catalog experiment";
  }
  for (const ExperimentDescriptor& exp : all_experiments())
    EXPECT_EQ(blocks[std::string(exp.name)], 1)
        << "experiment `" << exp.name
        << "` must own exactly one sssw:table block in EXPERIMENTS.md";
}

}  // namespace
}  // namespace sssw::analysis
