#include "core/detector.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sssw::core {

FailureDetector::FailureDetector(sim::Id self, const DetectorConfig& config,
                                 std::uint32_t lrl_count)
    : self_(self), config_(config) {
  SSSW_CHECK_MSG(config.probe_period >= 1, "probe_period must be >= 1");
  SSSW_CHECK_MSG(config.suspect_threshold >= 1, "suspect_threshold must be >= 1");
  SSSW_CHECK_MSG(config.quarantine_capacity >= 1,
                 "quarantine_capacity must be >= 1");
  monitors_.resize(kRoleLrlBase + lrl_count);
}

void FailureDetector::reset(Monitor& m, sim::Id target) {
  if (suspected(m)) --suspects_;
  m.target = target;
  m.view_l = sim::kNegInf;
  m.view_r = sim::kPosInf;
  m.has_view = false;
  m.missed = 0;
  m.retries = 0;
  m.cooldown = 0;
}

void FailureDetector::tick(std::uint64_t now, std::span<const sim::Id> pointers) {
  SSSW_CHECK_MSG(pointers.size() == monitors_.size(),
                 "pointer snapshot does not match the monitor layout");
  probes_.clear();
  evictions_.clear();
  for (std::size_t role = 0; role < monitors_.size(); ++role) {
    Monitor& m = monitors_[role];
    const sim::Id current = pointers[role];
    if (!sim::is_node_id(current) || current == self_) {
      if (suspected(m)) --suspects_;
      m.target = sim::kPosInf;  // slot idle; nothing to watch
      continue;
    }
    if (current != m.target) reset(m, current);  // pointer moved: re-watch
    if (m.missed < config_.suspect_threshold) {
      // Healthy phase: one ping per tick, counting silence.  The miss is
      // charged up front and forgiven by the pong; a pong from a previous
      // ping still in flight resets the counter, so only *consecutive*
      // silence accumulates.
      ++m.missed;
      const bool crossed = m.missed == config_.suspect_threshold;
      if (crossed) ++suspects_;
      probes_.push_back(Probe{current, false, crossed});
      continue;
    }
    // Suspected: bounded retries with exponential backoff, then eviction.
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

void FailureDetector::on_pong(sim::Id responder, sim::Id view_l,
                              sim::Id view_r) {
  for (Monitor& m : monitors_) {
    if (m.target != responder) continue;
    if (suspected(m)) --suspects_;
    m.missed = 0;
    m.retries = 0;
    m.cooldown = 0;
    m.view_l = view_l;
    m.view_r = view_r;
    m.has_view = true;
  }
}

void FailureDetector::quarantine(sim::Id id, std::uint64_t now) {
  const std::uint64_t expiry = now + config_.quarantine_rounds;
  quarantine_horizon_ = std::max(quarantine_horizon_, expiry);
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

bool FailureDetector::scan_quarantined(sim::Id id,
                                       std::uint64_t now) const noexcept {
  for (const auto& [dead, until] : dead_) {
    if (dead == id && now < until) return true;
  }
  return false;
}

std::size_t FailureDetector::count_quarantined(
    std::uint64_t now) const noexcept {
  std::size_t count = 0;
  for (const auto& [dead, until] : dead_) {
    if (now < until) ++count;
  }
  return count;
}

bool FailureDetector::scan_suspect(sim::Id target) const noexcept {
  if (!sim::is_node_id(target)) return false;
  for (const Monitor& m : monitors_) {
    if (m.target == target && m.missed >= config_.suspect_threshold) {
      return true;
    }
  }
  return false;
}

}  // namespace sssw::core
