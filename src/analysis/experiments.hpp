// experiments.hpp — the catalog of sweepable experiments.
//
// Each descriptor binds one experiment name (as written in a matrix config's
// `experiments` list) to the driver that measures one cell of it, declares
// which matrix axes the experiment actually consumes, and types the params
// it accepts after its name.  expand_cells() collapses unused axes to their
// defaults before hashing, so listing `faults` in a config never multiplies
// the e1-convergence cells, and the report stage knows which columns are
// meaningful per experiment.  `claim` names the paper theorem/figure the
// experiment checks.  doc/BENCHMARKS.md is the human-readable catalog and
// EXPERIMENTS.md holds one generated table per experiment; tests keep both
// in step with this list.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/sweep.hpp"

namespace sssw::obs {
class Registry;
}

namespace sssw::analysis {

/// What one cell execution produced: flat named observables (the meta.json
/// `metrics` object, also the runs.csv columns).  A non-empty `error` marks
/// the cell failed; metrics gathered so far are kept for debugging.
struct CellResult {
  std::vector<std::pair<std::string, double>> metrics;
  std::string error;

  void add(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
};

/// The type of one experiment param.  The config parser checks every value
/// against it, so a cell never carries a value its driver cannot use.
struct ParamSpec {
  enum class Kind : std::uint8_t {
    kNumber,   ///< a real in [min, max)
    kInteger,  ///< an integer in [min, max]
    kWord,     ///< one of `words`
  };
  std::string_view key;
  Kind kind = Kind::kNumber;
  double fallback = 0;  ///< kNumber/kInteger value when the key is absent
  double min = 0;
  double max = 0;
  std::span<const std::string_view> words;  ///< kWord; words[0] when absent
};

struct ExperimentDescriptor {
  std::string_view name;   ///< config-facing name, e.g. "e13-faults"
  std::string_view claim;  ///< paper theorem/figure the experiment checks
  bool uses_shape = false;
  bool uses_scheduler = false;
  bool uses_fault = false;
  bool uses_ablation = false;
  /// Params accepted after the name in the experiments list
  /// (`e14-recovery:crash=0.25`); any other key or value is a config error.
  std::span<const ParamSpec> params;
  /// Executes one cell.  `registry`, when non-null, receives the merged
  /// per-trial obs metrics for cells whose driver exposes them (the sweep
  /// runner snapshots it into the cell's metrics.jsonl).
  CellResult (*run)(const SweepCell& cell, obs::Registry* registry);
};

/// Every registered experiment, in catalog order (E1 → E15).
std::span<const ExperimentDescriptor> all_experiments();

/// Lookup by config-facing name; nullptr when unknown.
const ExperimentDescriptor* find_experiment(std::string_view name);

/// A cell's round budget to the sorted ring: cell.max_rounds when set, else
/// round_budget (convergence.hpp) of the network its scheduler and fault
/// axes describe — the bound the fuzzer grants the same case.
std::uint64_t cell_budget(const SweepCell& cell);

/// Splits a cell's canonical params string ("k=v;k=v") into pairs.
std::vector<std::pair<std::string, std::string>> split_params(
    std::string_view params);

/// Empty when `value` is a valid value of `experiment`'s param `key`;
/// otherwise the reason it is not (unknown key, malformed or out of range).
std::string check_param(const ExperimentDescriptor& experiment,
                        std::string_view key, std::string_view value);

}  // namespace sssw::analysis
