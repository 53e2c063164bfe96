// detector.hpp — active probe/ack failure detector (extension; DESIGN.md §8).
//
// The paper's leave analysis (§IV.G) assumes fail-stop with *detected*
// departures: a leaving node hands its pointers back.  A crash-stop failure
// gives no such courtesy — survivors keep stored pointers at an identifier
// that never answers, and because the protocol's repair traffic flows
// *through* those pointers, the gap can wedge forever
// (tests/test_crash_recovery.cpp pins that baseline).
//
// FailureDetector closes the gap with the classic probe/ack construction:
// every `probe_period` rounds a node pings each finite stored pointer; a
// pong resets that pointer's missed-ack counter and caches the responder's
// (l, r) view.  `suspect_threshold` consecutive misses make the target
// *suspected* (the node stops routing through it); `max_retries` further
// pings with exponential backoff are granted before the target is *evicted*:
// the pointer slot is cleared, the identifier enters a bounded quarantine
// list (stale or replayed messages cannot re-introduce it), and the owner
// re-links toward the cached (l, r) view so the survivors' line re-closes.
//
// Completeness: a crashed node never answers, so every pointer at it is
// evicted within (suspect_threshold + sum of backoffs) * probe_period
// rounds.  Accuracy: a live neighbour always answers within the scheduler's
// bounded round-trip, so with suspect_threshold * probe_period above that
// round-trip no live link is ever evicted (doc/FAULTS.md quantifies the
// margin per scheduler).
//
// The class is pure bookkeeping — it sends nothing and owns no pointers.
// Node calls tick() with its current pointer snapshot and performs the
// sends/evictions the detector asks for; that keeps every message on the
// engine's deterministic send path and the detector trivially testable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "sim/id.hpp"

namespace sssw::core {

class FailureDetector {
 public:
  /// Timer tag Node uses for the periodic probe tick.
  static constexpr std::uint64_t kProbeTimerTag = 1;

  /// Pointer-slot roles, in the canonical order Node passes to tick():
  /// index 0 = l, 1 = r, 2 = ring, 3 + i = lrl[i].
  static constexpr std::size_t kRoleL = 0;
  static constexpr std::size_t kRoleR = 1;
  static constexpr std::size_t kRoleRing = 2;
  static constexpr std::size_t kRoleLrlBase = 3;

  /// A ping the caller should send this tick.
  struct Probe {
    sim::Id target;
    bool retry;    ///< true once the target is already suspected
    bool suspect;  ///< true on the tick that crossed suspect_threshold
  };

  /// An eviction the caller should apply this tick: clear the pointer slot
  /// `role`, then re-link toward via_l / via_r (each may be non-finite if
  /// the target never answered a single ping — re-linking then falls to
  /// the surviving neighbours' own detectors).
  struct Eviction {
    std::size_t role;
    sim::Id target;
    sim::Id via_l;
    sim::Id via_r;
  };

  FailureDetector(sim::Id self, const DetectorConfig& config,
                  std::uint32_t lrl_count);

  /// One probe tick.  `pointers` is the canonical-order snapshot of the
  /// node's stored pointers (see kRole*); non-finite or self entries are
  /// idle.  Fills the probe and eviction lists returned by probes() /
  /// evictions(), valid until the next tick().
  void tick(std::uint64_t now, std::span<const sim::Id> pointers);

  std::span<const Probe> probes() const noexcept { return probes_; }
  std::span<const Eviction> evictions() const noexcept { return evictions_; }

  /// A pong from `responder` carrying its (l, r) view: resets the missed-ack
  /// state of every role currently watching `responder`.
  void on_pong(sim::Id responder, sim::Id view_l, sim::Id view_r);

  // The three queries below guard every adoption, link move, probe step
  // and lookup hop, and nearly always answer "no".  Two exact summaries
  // answer that case in O(1); the scans run only while a suspect exists or
  // a quarantine expiry still lies ahead.

  /// True while `id` sits on the dead-id quarantine list at round `now`.
  bool is_quarantined(sim::Id id, std::uint64_t now) const noexcept {
    return now < quarantine_horizon_ && scan_quarantined(id, now);
  }

  /// Number of ids quarantined at round `now` (for the obs gauge).
  std::size_t quarantined_count(std::uint64_t now) const noexcept {
    return now < quarantine_horizon_ ? count_quarantined(now) : 0;
  }

  /// True if any role currently holds `target` at suspect_threshold or
  /// beyond (the node should stop routing through it while retries run).
  bool is_suspect(sim::Id target) const noexcept {
    return suspects_ > 0 && scan_suspect(target);
  }

 private:
  /// Per-pointer-slot liveness state.  `target` is the pointer value the
  /// slot watched last tick; when the protocol moves the pointer the slot
  /// re-watches from scratch, so stabilization churn never accumulates
  /// misses against a pointer the node no longer holds.
  struct Monitor {
    sim::Id target = sim::kPosInf;  ///< non-finite = idle
    sim::Id view_l = sim::kNegInf;  ///< target's l from its last pong
    sim::Id view_r = sim::kPosInf;  ///< target's r from its last pong
    bool has_view = false;
    std::uint32_t missed = 0;    ///< consecutive unanswered pings
    std::uint32_t retries = 0;   ///< backoff retries spent since suspicion
    std::uint32_t cooldown = 0;  ///< ticks to wait before the next retry
  };

  void reset(Monitor& m, sim::Id target);
  void quarantine(sim::Id id, std::uint64_t now);
  /// The monitors suspects_ counts: a finite target at or past the
  /// threshold (an idle slot keeps its stale `missed`).
  bool suspected(const Monitor& m) const noexcept {
    return sim::is_node_id(m.target) && m.missed >= config_.suspect_threshold;
  }
  bool scan_quarantined(sim::Id id, std::uint64_t now) const noexcept;
  std::size_t count_quarantined(std::uint64_t now) const noexcept;
  bool scan_suspect(sim::Id target) const noexcept;

  sim::Id self_;
  DetectorConfig config_;
  std::vector<Monitor> monitors_;  ///< one per role, canonical order
  std::vector<Probe> probes_;
  std::vector<Eviction> evictions_;
  /// Bounded FIFO of (dead id, expiry round); refreshed if re-evicted.
  std::vector<std::pair<sim::Id, std::uint64_t>> dead_;
  /// Monitors for which suspected() holds; kept exact at every write to a
  /// monitor's `target` or `missed`.
  std::size_t suspects_ = 0;
  /// The latest expiry quarantine() ever set: from this round on no entry
  /// of dead_ is live.
  std::uint64_t quarantine_horizon_ = 0;
};

}  // namespace sssw::core
