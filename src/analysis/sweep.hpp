// sweep.hpp — the experiment-matrix sweep runner (tools/sssw_sweep).
//
// The sweep runner makes every experiment a build artifact.  A matrix
// config (bench/experiments/*.cfg, a line-oriented `key = value` format)
// names experiments and axis values; expand_cells() takes the cross
// product of experiment × n × shape × scheduler × fault × ablation × seed,
// collapses axes an experiment does not use (so the matrix never multiplies
// by a dimension that cannot change the result), and dedupes.  run_sweep()
// executes cells with bounded concurrency and writes, per cell,
//
//   results/runs/<name>/<cell-hash>/meta.json      parameters + provenance +
//                                                  status + flat metrics
//   results/runs/<name>/<cell-hash>/metrics.jsonl  obs::Registry snapshot
//                                                  (cells that attach one)
//
// The cell hash is FNV-1a over the canonical cell key, so the same config
// always maps to the same directories: --resume skips any cell whose
// meta.json already records status "ok" under the matching hash, which makes
// re-running a matrix after adding seeds or experiments incremental by
// construction.  tools/sssw_report aggregates the cells into runs.csv, a
// static HTML report, and the Markdown tables embedded in EXPERIMENTS.md /
// results/REPORT.md (see report.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "sim/faults.hpp"
#include "sim/scheduler.hpp"
#include "topology/initial_states.hpp"

namespace sssw::analysis {

// --- axis specs ------------------------------------------------------------

/// One fault-axis entry, parsed from a spec string:
///   none | dup:P | delay:P:MAX | partition:PIVOT:START:ROUNDS |
///   replay:P:HIST | oldest-last:HOLD
/// `canonical` is the spec re-rendered from the parsed values (shortest
/// round-trip doubles) — the form used in cell keys, hashes, and reports.
struct FaultSpec {
  std::string canonical = "none";
  sim::FaultPlan plan{};
  /// oldest-last:HOLD forces the starvation-bounded adversary scheduler with
  /// this hold time; 0 for every other spec.
  std::uint32_t oldest_last_hold = 0;

  bool oldest_last() const noexcept { return oldest_last_hold > 0; }
};

/// One ablation-axis entry, parsed from:
///   full | no-shortcut | no-move-forget | no-probing | detector |
///   eps:X | multilink:K | probe-interval:K
/// (K ≥ 1; multilink's K at most core::kMaxLrlCount).
struct AblationSpec {
  std::string canonical = "full";
  core::Config config{};
};

std::optional<FaultSpec> parse_fault_spec(const std::string& spec);
std::optional<AblationSpec> parse_ablation_spec(const std::string& spec);

// --- config ----------------------------------------------------------------

/// One entry of the `experiments` list: a descriptor name plus optional
/// experiment-specific parameters (`e14-recovery:crash=0.25:mode=leave`).
/// `params` is the canonical key-sorted `k=v;k=v` form ("" when none).
struct ExperimentRef {
  std::string name;
  std::string params;
};

/// A parsed matrix config.  Defaults match the smallest meaningful sweep so
/// a config only has to name what it varies.
struct SweepConfig {
  std::string name;
  std::vector<ExperimentRef> experiments;
  std::vector<std::size_t> sizes;                      // key: n
  std::vector<topology::InitialShape> shapes;          // key: shapes
  std::vector<sim::SchedulerKind> schedulers;          // key: schedulers
  std::vector<FaultSpec> faults;                       // key: faults
  std::vector<AblationSpec> ablations;                 // key: ablations
  std::vector<std::uint64_t> seeds;                    // key: seeds
  std::size_t trials = 4;                              // key: trials
  std::size_t jobs = 2;                                // key: jobs
  std::uint64_t max_rounds = 0;                        // key: max_rounds (0 = auto)
};

/// Parse failure: 1-based line number (0 = file-level problem, e.g. a
/// missing required key) plus a human-readable message.
struct SweepParseError {
  std::size_t line = 0;
  std::string message;

  std::string to_string() const;
};

/// Parses the `key = value` matrix format: '#' comments, blank lines,
/// comma-separated list values.  Returns nullopt and fills *error on the
/// first malformed line (unknown key, duplicate key, bad number, unknown
/// shape/scheduler/fault/ablation/experiment, an experiment param the
/// descriptor does not declare or a value of the wrong kind or range,
/// empty list).
std::optional<SweepConfig> parse_sweep_config(std::string_view text,
                                              SweepParseError* error);

/// Reads and parses a config file; nullopt with error.line = 0 if the file
/// cannot be read.
std::optional<SweepConfig> load_sweep_config(const std::filesystem::path& path,
                                             SweepParseError* error);

// --- cells -----------------------------------------------------------------

/// One fully expanded, normalized matrix cell: pure data, trivially
/// serializable.  Axes the experiment does not use hold their canonical
/// defaults (see expand_cells).
struct SweepCell {
  std::string experiment;
  std::string params;  ///< canonical "k=v;k=v" or ""
  std::size_t n = 64;
  topology::InitialShape shape = topology::InitialShape::kRandomChain;
  sim::SchedulerKind scheduler = sim::SchedulerKind::kSynchronous;
  std::string fault = "none";     ///< canonical fault spec
  std::string ablation = "full";  ///< canonical ablation spec
  std::uint64_t seed = 1;
  std::size_t trials = 4;
  std::uint64_t max_rounds = 0;

  bool operator==(const SweepCell&) const = default;
};

/// The canonical one-line key: every field, fixed order, `|`-separated.
/// Equal keys ⇔ equal cells; the hash and resume logic build on this.
std::string cell_key(const SweepCell& cell);

/// FNV-1a 64-bit over cell_key(), as 16 lowercase hex digits — the cell's
/// directory name.  Stable across runs, platforms, and field reordering.
std::string cell_hash(const SweepCell& cell);

/// Expands the cross product, collapsing axes the named experiment does not
/// use to their defaults and deduplicating the resulting cells (order
/// preserved: experiments outermost, then n, shape, scheduler, fault,
/// ablation, seed innermost).  A fault spec of kind oldest-last forces the
/// scheduler axis value to adversarial-oldest-last for that cell.
std::vector<SweepCell> expand_cells(const SweepConfig& config);

// --- per-cell outputs ------------------------------------------------------

/// Provenance stamped into every meta.json (and, via `sssw_sweep
/// --annotate`, into standing artifacts like BENCH_convergence.json): enough
/// to answer "which code, which matrix, which machine produced this number".
struct Provenance {
  std::string git_sha;      ///< HEAD of the enclosing git checkout, or "unknown"
  std::string config_hash;  ///< FNV-1a over every cell key of the expanded matrix
  std::string machine;      ///< cpu count + compiler, e.g. "2 cpus, gcc 12.2.0"
};

/// Reads HEAD by following .git/HEAD → refs (no subprocess); searches
/// upward from `start` for the .git directory.
std::string read_git_sha(const std::filesystem::path& start);

/// Provenance for a parsed config: matrix hash over its expanded cells.
Provenance collect_provenance(const SweepConfig& config,
                              const std::filesystem::path& start = ".");

/// The parsed form of one cell's meta.json.  Field order in the serialized
/// file is fixed; `metrics` are the experiment's flat observables (a cell's
/// obs registry goes to its metrics.jsonl instead).
struct CellMeta {
  SweepCell cell{};
  std::string hash;
  Provenance provenance{};
  std::string status;  ///< "ok" or "failed: <reason>"
  double wall_seconds = 0.0;
  std::vector<std::pair<std::string, double>> metrics;

  bool ok() const noexcept { return status == "ok"; }
};

std::string to_json(const CellMeta& meta);
std::optional<CellMeta> parse_cell_meta(const std::string& text);

// --- running ---------------------------------------------------------------

struct SweepRunOptions {
  std::filesystem::path out_root = "results/runs";
  std::size_t jobs = 0;        ///< 0 = config.jobs
  bool resume = false;         ///< skip cells whose meta.json records "ok"
  bool dry_run = false;        ///< print the plan, execute nothing
  bool fail_fast = false;      ///< stop scheduling after the first failure
  std::ostream* log = nullptr; ///< progress lines (nullptr = silent)
};

struct SweepSummary {
  std::size_t planned = 0;
  std::size_t executed = 0;
  std::size_t skipped = 0;  ///< resume hits
  std::size_t failed = 0;
  std::filesystem::path exp_dir;
};

/// Expands, (optionally) resumes, and executes the matrix with at most
/// `jobs` cells in flight.  Also writes <exp_dir>/sweep.json describing the
/// whole run (name, seeds, provenance, planned cell count) for the report
/// stage.  Trial-level parallelism inside a cell still uses the shared
/// util::parallel_for pool; the cell loop uses its own threads, so the two
/// levels compose without starving each other.
SweepSummary run_sweep(const SweepConfig& config, const SweepRunOptions& options);

/// The run-level metadata written next to the cells.
struct SweepMeta {
  std::string name;
  std::vector<std::uint64_t> seeds;
  std::size_t planned = 0;
  Provenance provenance{};
};

std::string to_json(const SweepMeta& meta);
std::optional<SweepMeta> parse_sweep_meta(const std::string& text);

/// Inserts or replaces a `"provenance": {...}` block in an existing JSON
/// artifact (e.g. BENCH_convergence.json), so standing result files carry
/// machine-written provenance instead of hand-curated notes.  Returns the
/// rewritten text, or nullopt if `text` is not a JSON object.
std::optional<std::string> annotate_provenance(const std::string& text,
                                               const Provenance& provenance);

}  // namespace sssw::analysis
