// node_store.hpp — struct-of-arrays storage for hot small-world node state.
//
// The per-round sweep touches every node's (l, r, ring, lrl[], forgets): with
// each node owning its own heap objects (a Config copy, a heap-allocated lrl
// vector) that sweep is a pointer chase and 10^6 nodes do not fit a sane
// footprint.  NodeStore keeps exactly that hot state in flat arrays indexed
// by a dense slot; SmallWorldNode stays the API (a thin view holding a
// store pointer + slot) so the protocol code, the invariant tracker's hooks
// and every inspection path are unchanged.
//
// Slots are recycled through a free list, so long churn histories do not
// grow the arrays without bound.  Callers never hold references into the
// arrays across an acquire() (growth may reallocate); SmallWorldNode's
// accessors re-index per call, which the optimizer folds inside one action.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/forget.hpp"
#include "routing/next_hop.hpp"
#include "sim/id.hpp"
#include "util/check.hpp"

namespace sssw::core {

// l, r and ring plus every link must fit one lookup hop's candidate array.
static_assert(3 + kMaxLrlCount <= routing::kMaxNextHopCandidates,
              "kMaxLrlCount links do not fit the next-hop candidate array");

/// One long-range link: the endpoint of its token's walk plus its age.
/// (Also aliased as SmallWorldNode::LongRangeLink for existing call sites.)
struct LongRangeLink {
  sim::Id target;
  Age age = 0;
};

/// Protocol event counts summed over every node of one store — the node.*
/// counters of doc/OBSERVABILITY.md.  Nodes count into it whether or not a
/// registry is attached; SmallWorldNetwork::attach_metrics makes the
/// registry's counters views of it.
struct NodeCounts {
  std::uint64_t linearize_adoptions = 0;  ///< lin payload adopted as closer l/r
  std::uint64_t linearize_forwards = 0;   ///< lin payload delegated onward
  std::uint64_t lrl_moves = 0;            ///< MOVE-FORGET advanced a token
  std::uint64_t lrl_forgets = 0;          ///< φ(α) fired: token sent home
  std::uint64_t lrl_resets = 0;           ///< link reset to home, any cause
  std::uint64_t ring_updates = 0;         ///< UPDATERING improved a ring edge
  std::uint64_t probe_repairs = 0;  ///< probe dead-end repaired via linearize
  // Active probe/ack detector (config.detector; all zero while disabled).
  std::uint64_t detector_probes = 0;    ///< pings sent (one per watched pointer per tick)
  std::uint64_t detector_acks = 0;      ///< pings answered with a pong
  std::uint64_t detector_pongs = 0;     ///< pongs received (acks that survived the channel)
  std::uint64_t detector_suspects = 0;  ///< pointers that crossed suspect_threshold
  std::uint64_t detector_retries = 0;   ///< backoff retry pings after suspicion
  std::uint64_t detector_evictions = 0;  ///< pointers evicted (dead id quarantined)
  std::uint64_t detector_quarantine_hits = 0;  ///< adoptions/spreads blocked by the detector
  std::uint64_t detector_rescues = 0;  ///< isolation rescue announcements sent
  // In-band lookup service (src/service/, doc/SERVICE.md); all zero unless a
  // LookupManager injects load.
  std::uint64_t service_forwards = 0;    ///< lookups forwarded one hop
  std::uint64_t service_hits = 0;        ///< lookups answered at their target
  std::uint64_t service_misses = 0;      ///< lookups dead-lettered at a hop
  std::uint64_t service_dead_skips = 0;  ///< next-hop candidates skipped as dead
  std::uint64_t service_ttl_drops = 0;   ///< misses caused by ttl exhaustion
  std::uint64_t service_repairs = 0;     ///< dead-end targets fed to linearization
};

class NodeStore {
 public:
  explicit NodeStore(const Config& config) : config_(config) {
    SSSW_CHECK_MSG(config_.lrl_count >= 1, "lrl_count must be at least 1");
    SSSW_CHECK_MSG(config_.lrl_count <= kMaxLrlCount,
                   "lrl_count must be at most kMaxLrlCount (13)");
  }

  const Config& config() const noexcept { return config_; }
  std::size_t lrl_count() const noexcept { return config_.lrl_count; }

  /// The event counts of every node that ever held a slot here.  Shared,
  /// so registry views keep reading them after the store is gone.
  NodeCounts& counts() noexcept { return *counts_; }
  const std::shared_ptr<NodeCounts>& shared_counts() const noexcept {
    return counts_;
  }

  /// Allocates a slot (recycling released ones) with zeroed/neutral state;
  /// the caller initializes the protocol variables afterwards.
  std::size_t acquire() {
    if (!free_.empty()) {
      const std::size_t slot = free_.back();
      free_.pop_back();
      reset(slot);
      return slot;
    }
    const std::size_t slot = l_.size();
    l_.push_back(sim::kNegInf);
    r_.push_back(sim::kPosInf);
    ring_.push_back(0.0);
    forgets_.push_back(0);
    max_age_.push_back(0);
    lrls_.resize(lrls_.size() + config_.lrl_count);
    return slot;
  }

  void release(std::size_t slot) noexcept { free_.push_back(slot); }

  /// Sizes the columns for `nodes` live nodes: acquiring up to that many
  /// (recycled slots first) never reallocates.
  void reserve(std::size_t nodes) {
    const std::size_t columns = l_.size() - free_.size() + nodes;
    if (columns <= l_.size()) return;
    l_.reserve(columns);
    r_.reserve(columns);
    ring_.reserve(columns);
    forgets_.reserve(columns);
    max_age_.reserve(columns);
    lrls_.reserve(columns * config_.lrl_count);
  }

  // --- hot-state accessors, by slot ------------------------------------
  sim::Id& l(std::size_t s) noexcept { return l_[s]; }
  sim::Id l(std::size_t s) const noexcept { return l_[s]; }
  sim::Id& r(std::size_t s) noexcept { return r_[s]; }
  sim::Id r(std::size_t s) const noexcept { return r_[s]; }
  sim::Id& ring(std::size_t s) noexcept { return ring_[s]; }
  sim::Id ring(std::size_t s) const noexcept { return ring_[s]; }
  std::uint64_t& forgets(std::size_t s) noexcept { return forgets_[s]; }
  std::uint64_t forgets(std::size_t s) const noexcept { return forgets_[s]; }
  Age& max_age(std::size_t s) noexcept { return max_age_[s]; }
  Age max_age(std::size_t s) const noexcept { return max_age_[s]; }
  std::span<LongRangeLink> lrls(std::size_t s) noexcept {
    return {lrls_.data() + s * config_.lrl_count, config_.lrl_count};
  }
  std::span<const LongRangeLink> lrls(std::size_t s) const noexcept {
    return {lrls_.data() + s * config_.lrl_count, config_.lrl_count};
  }

  /// Ages whose φ the store tables: 32 KB at most, and a link survives to
  /// this age with probability about 3·10⁻⁵ at ε = 0.1.
  static constexpr Age kForgetCacheAges = 4096;

  /// φ(age) for this store's ε, bit-identical to core::forget_probability,
  /// so no Bernoulli draw moves.  Ages below kForgetCacheAges read a table
  /// that grows on first use up to the age asked for, so a store whose
  /// links stay young fills only a few entries; older ages evaluate the
  /// formula.
  double forget_probability(Age age) {
    if (age < forget_cache_.size()) return forget_cache_[age];
    if (age >= kForgetCacheAges) {
      return core::forget_probability(age, config_.epsilon);
    }
    while (forget_cache_.size() <= age) {
      forget_cache_.push_back(
          core::forget_probability(forget_cache_.size(), config_.epsilon));
    }
    return forget_cache_[age];
  }

 private:
  void reset(std::size_t slot) noexcept {
    l_[slot] = sim::kNegInf;
    r_[slot] = sim::kPosInf;
    ring_[slot] = 0.0;
    forgets_[slot] = 0;
    max_age_[slot] = 0;
    for (LongRangeLink& link : lrls(slot)) link = LongRangeLink{0.0};
  }

  const Config config_;
  std::shared_ptr<NodeCounts> counts_ = std::make_shared<NodeCounts>();
  std::vector<sim::Id> l_;
  std::vector<sim::Id> r_;
  std::vector<sim::Id> ring_;
  std::vector<LongRangeLink> lrls_;  // strided: slot s owns [s*k, (s+1)*k)
  std::vector<std::uint64_t> forgets_;
  std::vector<Age> max_age_;
  std::vector<std::size_t> free_;
  std::vector<double> forget_cache_;  ///< φ(a) for every a < size()
};

}  // namespace sssw::core
