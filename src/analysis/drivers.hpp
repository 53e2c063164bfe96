// drivers.hpp — the cell drivers the catalog (experiments.cpp) binds, and
// the readers they share for a cell's axes and params.  Internal to
// src/analysis: callers go through the catalog.
//
// Each driver reads n, trials, seed, budget, scheduler, fault, ablation and
// params from the cell and adds its metrics to the CellResult directly.
// The drivers declared here live in the files of their experiment families;
// the catalog's other drivers are local to experiments.cpp.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/config.hpp"
#include "sim/engine.hpp"

namespace sssw::analysis {

// --- cell readers (experiments.cpp) ----------------------------------------

/// The cell's value of a kNumber/kInteger param of its experiment, or the
/// param's fallback when the cell does not set it.
double number_param(const SweepCell& cell, std::string_view key);

/// The cell's value of a kWord param, or the param's first word.
std::string word_param(const SweepCell& cell, std::string_view key);

/// The protocol config the cell's ablation spec describes.
core::Config ablation_config(const SweepCell& cell);

/// The engine a cell runs on: its scheduler and fault plan, where an
/// oldest-last fault is the adversarial-oldest-last scheduler with the
/// fault's hold.
sim::EngineConfig cell_engine(const SweepCell& cell);

/// Mean of `values`, or -1 when there are none (no trial got that far).
double mean_or_none(const std::vector<double>& values);

/// part / whole, or 0 when whole is 0.
double fraction(std::size_t part, std::size_t whole);

// --- drivers ---------------------------------------------------------------

// convergence.cpp
CellResult run_convergence(const SweepCell& cell, obs::Registry* registry);  // E1, A1
CellResult run_churn(const SweepCell& cell, obs::Registry* registry);        // E6
CellResult run_storm(const SweepCell& cell, obs::Registry* registry);        // E7

// phases.cpp
CellResult run_phases(const SweepCell& cell, obs::Registry* registry);  // E1b

// service.cpp
CellResult run_stabilizing_service(const SweepCell& cell,
                                   obs::Registry* registry);  // E1c

// linklen.cpp
CellResult run_linklen(const SweepCell& cell, obs::Registry* registry);  // E3

// robustness.cpp
CellResult run_robustness(const SweepCell& cell, obs::Registry* registry);  // E9

// stress.cpp
CellResult run_faults(const SweepCell& cell, obs::Registry* registry);    // E13
CellResult run_recovery(const SweepCell& cell, obs::Registry* registry);  // E14

}  // namespace sssw::analysis
