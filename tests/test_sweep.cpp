// Tests for the experiment-matrix sweep runner (analysis/sweep.hpp), the
// experiment catalog (analysis/experiments.hpp), the report renderer
// (analysis/report.hpp), and the doc/BENCHMARKS.md coverage contract:
// every catalog experiment and every bench binary must be documented, so an
// experiment added without docs fails here rather than rotting silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/report.hpp"
#include "analysis/sweep.hpp"
#include "obs/registry.hpp"

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
    EXPECT_FALSE(std::string(exp.binary).empty()) << exp.name;
    EXPECT_FALSE(std::string(exp.claim).empty()) << exp.name;
    EXPECT_NE(exp.run, nullptr) << exp.name;
    EXPECT_EQ(find_experiment(exp.name), &exp);
  }
  EXPECT_EQ(find_experiment("e99-nope"), nullptr);
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

  // Every sweep-catalog experiment and its backing binary.
  for (const ExperimentDescriptor& exp : all_experiments()) {
    EXPECT_NE(doc.find('`' + std::string(exp.name) + '`'), std::string::npos)
        << "experiment `" << exp.name << "` is not documented in doc/BENCHMARKS.md";
    EXPECT_NE(doc.find('`' + std::string(exp.binary) + '`'), std::string::npos)
        << "binary `" << exp.binary << "` is not documented in doc/BENCHMARKS.md";
  }

  // Every bench binary registered in bench/CMakeLists.txt.
  const std::string cmake =
      read_file(std::string(SSSW_SOURCE_DIR) + "/bench/CMakeLists.txt");
  std::size_t pos = 0;
  std::size_t found = 0;
  while ((pos = cmake.find("sssw_bench(", pos)) != std::string::npos) {
    pos += std::string("sssw_bench(").size();
    const std::size_t end = cmake.find(')', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string target = cmake.substr(pos, end - pos);
    EXPECT_NE(doc.find('`' + target + '`'), std::string::npos)
        << "bench target `" << target << "` is not documented in doc/BENCHMARKS.md";
    ++found;
  }
  EXPECT_GE(found, 8u) << "bench/CMakeLists.txt parse found too few targets";
}

}  // namespace
}  // namespace sssw::analysis
