// cells.hpp — runs one sweep cell of a catalog experiment, for the tests
// that check a driver's numbers through its cell: test_sweep.cpp and the
// tests of each experiment family.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"

namespace sssw::analysis {

using Metrics = std::vector<std::pair<std::string, double>>;

/// A cell of `experiment` with `params` ("k=v;k=v"), n nodes, `trials`
/// trials and seed 20120521; the other axes keep their defaults.
inline SweepCell small_cell(const std::string& experiment,
                            const std::string& params, std::size_t n,
                            std::size_t trials = 2) {
  SweepCell cell;
  cell.experiment = experiment;
  cell.params = params;
  cell.n = n;
  cell.trials = trials;
  cell.seed = 20120521;
  return cell;
}

/// The metrics of one run of `cell`; a driver error fails the test.
inline Metrics run_cell(const SweepCell& cell) {
  const CellResult result = find_experiment(cell.experiment)->run(cell, nullptr);
  EXPECT_TRUE(result.error.empty()) << cell.experiment << ": " << result.error;
  return result.metrics;
}

/// Runs `experiment` with `params` on one small cell.
inline Metrics run_cell(const std::string& experiment, const std::string& params,
                        std::size_t n, std::size_t trials = 2,
                        const std::string& ablation = "full") {
  SweepCell cell = small_cell(experiment, params, n, trials);
  cell.ablation = ablation;
  return run_cell(cell);
}

/// The value of the metric called `name`; a missing metric fails the test.
inline double metric(const Metrics& metrics, const std::string& name) {
  for (const auto& [key, value] : metrics)
    if (key == name) return value;
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

}  // namespace sssw::analysis
