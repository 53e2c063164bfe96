// fuzz.hpp — deterministic convergence fuzzer with shrinking reproducers.
//
// The paper claims convergence to the sorted ring from *any* weakly
// connected initial digraph under *any* fair schedule (Theorems 4.3–4.24).
// The fuzzer hunts for counterexamples: it samples (n, InitialShape,
// scheduler, FaultPlan, protocol config, seed) tuples, runs each to a
// theorem-derived round bound, and checks the oracles below every round.
// On a violation it *shrinks* the case (halve n, drop fault dimensions one
// at a time, bisect the fault window, simplify the schedule) while the same
// oracle keeps failing, then emits a minimal one-line JSON reproducer that
// replays byte-identically — same verdict, same violation round, same
// counter digest.
//
// Everything is a pure function of the FuzzCase: two runs of the same case
// agree on every field of the verdict, which is what makes a committed
// corpus (tests/corpus/*.json) a meaningful regression suite.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/invariants.hpp"
#include "sim/faults.hpp"
#include "sim/scheduler.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw::analysis {

/// The correctness properties the fuzzer checks, in checking order.
enum class FuzzOracle : std::uint8_t {
  /// core::detect_phase never regresses across rounds.  Only sound for the
  /// synchronous scheduler with an inactive fault plan (async interleavings
  /// and fault replay can legitimately bounce the observed phase).
  kPhaseMonotone,
  /// Every long-range link points at a live node (no churn in the fuzzer,
  /// so this must hold unconditionally).
  kLrlsResolve,
  /// CC weak connectivity is preserved round to round (Lemma 4.10).
  /// Skipped when a partition is configured: a crossing drop can destroy
  /// the only reference to a subtree, exactly like message loss in A4.
  kConnectivity,
  /// The sorted ring forms within the round bound.  With a partition or
  /// message loss, only required if CC is still weakly connected after the
  /// window (the theorem's precondition survived the adversary).  Not
  /// checked on crash cases — kCrashRecovery owns those.
  kEventualRing,
  /// After the crash round, the survivors re-converge to the sorted ring
  /// over the remaining ids within the bound.  Only sound when the active
  /// failure detector is enabled (without it the wedge is the *expected*
  /// outcome — see Network::crash) and the survivors are still weakly
  /// connected at the bound (crash + loss + partition can legitimately
  /// sever them).
  kCrashRecovery,
  /// Lookup liveness (src/service/): once the run has converged (sorted
  /// ring; detector healed where a crash was scheduled), lookups issued to
  /// surviving targets eventually succeed.  Checked only when the case ran
  /// lookup load (lookup_rate > 0): after a quiesce window that lets
  /// quarantines expire, a probe wave of sampled (source, target) pairs is
  /// issued through a fresh manager with a sound timeout (≥ n + slack) and
  /// bounded re-issues; a pair that never completes is a violation.
  kLookupLiveness,
};

const char* to_string(FuzzOracle oracle) noexcept;
std::optional<FuzzOracle> oracle_from_string(const std::string& name);

/// One fuzz trial, fully describing a deterministic run.
struct FuzzCase {
  std::size_t n = 8;
  topology::InitialShape shape = topology::InitialShape::kRandomChain;
  sim::SchedulerKind scheduler = sim::SchedulerKind::kSynchronous;
  sim::FaultPlan faults{};
  std::uint32_t adversary_delay = 3;
  core::Config protocol{};
  std::uint64_t seed = 1;
  /// Per-message loss probability (NetworkOptions::message_loss).
  double message_loss = 0.0;
  /// Crash-stop schedule: before round `crash_round` is run, a deterministic
  /// `crash_frac` fraction of the live nodes (at least 1, at most n − 2)
  /// vanishes with stale pointers left behind.  Inactive unless both are
  /// positive.  Sampled cases always pair crashes with the active detector
  /// (protocol.detector.enabled) — without it recovery is not expected and
  /// no oracle demands it.
  double crash_frac = 0.0;
  std::uint64_t crash_round = 0;
  /// In-band lookup load (service::LookupManager): when `lookup_rate` > 0 a
  /// manager rides the whole run, issuing open-loop lookups concurrently
  /// with stabilization, faults, loss, and crashes, and the lookup-liveness
  /// oracle runs after convergence.  The default 0 attaches nothing, so
  /// every pre-existing corpus case keeps its exact trajectory and digest.
  double lookup_rate = 0.0;
  std::uint32_t lookup_ttl = 64;
  std::uint32_t lookup_timeout = 32;
  std::uint32_t lookup_retries = 1;
  std::uint32_t lookup_hedge = 0;  ///< hedge_after rounds; 0 = no hedging

  bool operator==(const FuzzCase&) const = default;
};

/// The theorem-derived budget: round_budget (convergence.hpp) of the case's
/// network — the bound E13 grants the same plan — plus a detect-and-repair
/// run after a scheduled crash and the lookup service's failure horizon.
std::uint64_t round_bound(const FuzzCase& c);

/// What one run concluded.  Replaying the same case yields the same verdict
/// field-for-field; `digest` folds the full EngineCounters (FNV-1a), so it
/// pins the entire trajectory, not just the outcome.
struct FuzzVerdict {
  bool ok = true;
  FuzzOracle oracle = FuzzOracle::kEventualRing;  ///< meaningful iff !ok
  std::uint64_t violation_round = 0;              ///< meaningful iff !ok
  std::uint64_t rounds_run = 0;
  core::Phase final_phase = core::Phase::kDisconnected;
  std::uint64_t digest = 0;

  bool operator==(const FuzzVerdict&) const = default;
};

/// Run-time knobs.  `invert` is the hidden test hook: the named oracle's
/// aggregate pass/fail is flipped, so a healthy protocol yields a
/// deterministic "violation" with which the shrink + reproduce pipeline can
/// be exercised end to end (ISSUE acceptance: a forced violation must
/// shrink and replay byte-identically).
struct FuzzOptions {
  std::optional<FuzzOracle> invert{};
  /// Cross-check the network's incremental invariant tracker against the
  /// recompute oracles on every per-round query (NetworkOptions::
  /// verify_tracker).  Pure observation: verdicts, rounds, and digests are
  /// identical with or without it, so it is deliberately NOT serialized
  /// into reproducers — it only changes how hard a replay checks itself.
  bool paranoid = false;
};

/// Samples one case from the master stream.  Every dimension is drawn from
/// a coarse grid so the JSON reproducer round-trips doubles exactly.
FuzzCase sample_case(util::Rng& rng, std::size_t max_n);

/// Runs one case to its round bound (stopping early once the ring forms and
/// every oracle has had its say) and returns the verdict.
FuzzVerdict run_case(const FuzzCase& c, const FuzzOptions& options = {});

/// Greedy shrink: repeatedly applies the first simplification (halve n,
/// synchronous schedule, drop duplication/delay/replay, bisect then drop
/// the partition window, default protocol) that keeps the *same oracle*
/// failing, until none applies.  Returns the minimal failing case;
/// `*steps_out` (optional) receives the number of accepted simplifications.
FuzzCase shrink_case(const FuzzCase& failing, const FuzzOptions& options = {},
                     std::size_t* steps_out = nullptr);

/// A reproducer: the case, the expected verdict, and the options that
/// produced it — everything needed to replay and re-check.
struct FuzzRepro {
  FuzzCase c{};
  FuzzVerdict expected{};
  FuzzOptions options{};
};

/// One-line JSON for a reproducer file; parse_repro inverts it exactly
/// (strict: malformed JSON, unknown keys, mistyped or out-of-range values,
/// or missing fields yield nullopt, never a half-filled case).
std::string to_json(const FuzzRepro& repro);
std::optional<FuzzRepro> parse_repro(const std::string& json);

/// The exact command that replays a written reproducer.
std::string replay_cli(const std::string& path);

}  // namespace sssw::analysis
