// reference_detector.hpp — the scan-only failure detector, used ONLY by the
// differential test in tests/test_crash_recovery.cpp.
//
// The same state machine as core::FailureDetector without its O(1)
// summaries (a count of suspected monitors, the latest quarantine expiry):
// every query scans the monitors or the quarantine list.  The differential
// test drives it and the production detector through the same operations
// and requires identical probes, evictions and answers, so the summaries
// can only ever skip a scan whose answer is already known.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "sim/id.hpp"
#include "util/check.hpp"

namespace sssw::testing {

class ReferenceDetector {
 public:
  static constexpr std::size_t kRoleLrlBase = 3;

  struct Probe {
    sim::Id target;
    bool retry;
    bool suspect;
  };

  struct Eviction {
    std::size_t role;
    sim::Id target;
    sim::Id via_l;
    sim::Id via_r;
  };

  ReferenceDetector(sim::Id self, const core::DetectorConfig& config,
                    std::uint32_t lrl_count)
      : self_(self), config_(config) {
    SSSW_CHECK_MSG(config.probe_period >= 1, "probe_period must be >= 1");
    SSSW_CHECK_MSG(config.suspect_threshold >= 1,
                   "suspect_threshold must be >= 1");
    SSSW_CHECK_MSG(config.quarantine_capacity >= 1,
                   "quarantine_capacity must be >= 1");
    monitors_.resize(kRoleLrlBase + lrl_count);
  }

  void tick(std::uint64_t now, std::span<const sim::Id> pointers) {
    SSSW_CHECK_MSG(pointers.size() == monitors_.size(),
                   "pointer snapshot does not match the monitor layout");
    probes_.clear();
    evictions_.clear();
    for (std::size_t role = 0; role < monitors_.size(); ++role) {
      Monitor& m = monitors_[role];
      const sim::Id current = pointers[role];
      if (!sim::is_node_id(current) || current == self_) {
        m.target = sim::kPosInf;  // slot idle; nothing to watch
        continue;
      }
      if (current != m.target) reset(m, current);  // pointer moved: re-watch
      if (m.missed < config_.suspect_threshold) {
        ++m.missed;
        probes_.push_back(
            Probe{current, false, m.missed == config_.suspect_threshold});
        continue;
      }
      if (m.cooldown > 0) {
        --m.cooldown;
        continue;
      }
      if (m.retries < config_.max_retries) {
        ++m.retries;
        m.cooldown = 1u << m.retries;
        probes_.push_back(Probe{current, true, false});
        continue;
      }
      quarantine(current, now);
      evictions_.push_back(Eviction{role, current, m.view_l, m.view_r});
      reset(m, sim::kPosInf);  // slot cleared; caller rewrites the pointer
    }
  }

  std::span<const Probe> probes() const noexcept { return probes_; }
  std::span<const Eviction> evictions() const noexcept { return evictions_; }

  void on_pong(sim::Id responder, sim::Id view_l, sim::Id view_r) {
    for (Monitor& m : monitors_) {
      if (m.target != responder) continue;
      m.missed = 0;
      m.retries = 0;
      m.cooldown = 0;
      m.view_l = view_l;
      m.view_r = view_r;
      m.has_view = true;
    }
  }

  bool is_quarantined(sim::Id id, std::uint64_t now) const noexcept {
    for (const auto& [dead, until] : dead_) {
      if (dead == id && now < until) return true;
    }
    return false;
  }

  std::size_t quarantined_count(std::uint64_t now) const noexcept {
    std::size_t count = 0;
    for (const auto& [dead, until] : dead_) {
      if (now < until) ++count;
    }
    return count;
  }

  bool is_suspect(sim::Id target) const noexcept {
    if (!sim::is_node_id(target)) return false;
    for (const Monitor& m : monitors_) {
      if (m.target == target && m.missed >= config_.suspect_threshold) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Monitor {
    sim::Id target = sim::kPosInf;
    sim::Id view_l = sim::kNegInf;
    sim::Id view_r = sim::kPosInf;
    bool has_view = false;
    std::uint32_t missed = 0;
    std::uint32_t retries = 0;
    std::uint32_t cooldown = 0;
  };

  void reset(Monitor& m, sim::Id target) {
    m.target = target;
    m.view_l = sim::kNegInf;
    m.view_r = sim::kPosInf;
    m.has_view = false;
    m.missed = 0;
    m.retries = 0;
    m.cooldown = 0;
  }

  void quarantine(sim::Id id, std::uint64_t now) {
    const std::uint64_t expiry = now + config_.quarantine_rounds;
    for (auto& [dead, until] : dead_) {
      if (dead == id) {
        until = std::max(until, expiry);  // refresh, don't duplicate
        return;
      }
    }
    if (dead_.size() >= config_.quarantine_capacity) {
      dead_.erase(dead_.begin());  // bounded: forget the oldest eviction
    }
    dead_.emplace_back(id, expiry);
  }

  sim::Id self_;
  core::DetectorConfig config_;
  std::vector<Monitor> monitors_;
  std::vector<Probe> probes_;
  std::vector<Eviction> evictions_;
  std::vector<std::pair<sim::Id, std::uint64_t>> dead_;
};

}  // namespace sssw::testing
