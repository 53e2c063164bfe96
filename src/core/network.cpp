#include "core/network.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sssw::core {

using sim::Id;
using sim::kNegInf;
using sim::kPosInf;

SmallWorldNetwork::SmallWorldNetwork(NetworkOptions options)
    : options_(options),
      store_(std::make_unique<NodeStore>(options.protocol)),
      engine_(std::make_unique<sim::Engine>(options)),
      tracker_(std::make_unique<InvariantTracker>(*engine_, *store_)) {}

SmallWorldNetwork& SmallWorldNetwork::operator=(SmallWorldNetwork&& other) noexcept {
  if (this == &other) return *this;
  tracker_.reset();
  engine_.reset();  // the old nodes release their slots into the old store
  options_ = other.options_;
  store_ = std::move(other.store_);
  engine_ = std::move(other.engine_);
  tracker_ = std::move(other.tracker_);
  return *this;
}

void SmallWorldNetwork::add_node(const NodeInit& init) {
  auto node = std::make_unique<SmallWorldNode>(init, *store_);
  SmallWorldNode* raw = node.get();
  engine_->add_process(std::move(node));
  // Seed the tracker *after* the engine owns the node (the tracker reads
  // rank order from the engine), then start the mutation-hook stream.
  tracker_->on_add(*raw);
  raw->set_invariant_tracker(tracker_.get());
}

void SmallWorldNetwork::attach_metrics(obs::Registry& registry) {
  engine_->attach_metrics(registry);
  static constexpr std::pair<const char*, std::uint64_t NodeCounts::*>
      kNodeCounters[] = {
          {"node.linearize.adoptions", &NodeCounts::linearize_adoptions},
          {"node.linearize.forwards", &NodeCounts::linearize_forwards},
          {"node.lrl.moves", &NodeCounts::lrl_moves},
          {"node.lrl.forgets", &NodeCounts::lrl_forgets},
          {"node.lrl.resets", &NodeCounts::lrl_resets},
          {"node.ring.updates", &NodeCounts::ring_updates},
          {"node.probe.repairs", &NodeCounts::probe_repairs},
          {"node.detector.probes", &NodeCounts::detector_probes},
          {"node.detector.acks", &NodeCounts::detector_acks},
          {"node.detector.pongs", &NodeCounts::detector_pongs},
          {"node.detector.suspects", &NodeCounts::detector_suspects},
          {"node.detector.retries", &NodeCounts::detector_retries},
          {"node.detector.evictions", &NodeCounts::detector_evictions},
          {"node.detector.quarantine.hits",
           &NodeCounts::detector_quarantine_hits},
          {"node.detector.rescues", &NodeCounts::detector_rescues},
          {"node.service.forwards", &NodeCounts::service_forwards},
          {"node.service.hits", &NodeCounts::service_hits},
          {"node.service.misses", &NodeCounts::service_misses},
          {"node.service.dead-skips", &NodeCounts::service_dead_skips},
          {"node.service.ttl-drops", &NodeCounts::service_ttl_drops},
          {"node.service.repairs", &NodeCounts::service_repairs},
      };
  const std::shared_ptr<NodeCounts>& counts = store_->shared_counts();
  for (const auto& [name, field] : kNodeCounters)
    registry.counter(name).view(counts, {&((*counts).*field), 1});
  // Tracker gauges (doc/OBSERVABILITY.md invariants.*), refreshed once per
  // round.  The hook captures only what is stable across network moves:
  // gauge references (Registry stores metrics behind node-stable maps) and
  // the engine and tracker pointers (both behind unique_ptr) — never
  // `this`, which a move leaves behind.
  obs::Gauge& sorted_pairs = registry.gauge("invariants.sorted-pairs");
  obs::Gauge& ring_closed = registry.gauge("invariants.ring-closed");
  obs::Gauge& forgot = registry.gauge("invariants.forgot-nodes");
  obs::Gauge& unresolved = registry.gauge("invariants.unresolved-lrls");
  obs::Gauge& quarantined = registry.gauge("node.detector.quarantined");
  const InvariantTracker* tracker = tracker_.get();
  const sim::Engine* engine = engine_.get();
  // The quarantine gauge is registered unconditionally (the catalog is
  // config-independent) but only summed — an O(n) walk — when the active
  // detector is on; disabled runs pay nothing beyond the branch.
  const bool detector_on = options_.protocol.detector.enabled;
  engine_->add_round_hook([=, &sorted_pairs, &ring_closed, &forgot,
                           &unresolved, &quarantined](std::uint64_t) {
    sorted_pairs.set(static_cast<double>(tracker->sorted_pairs()));
    ring_closed.set(tracker->sorted_ring() ? 1.0 : 0.0);
    forgot.set(static_cast<double>(tracker->forgot_nodes()));
    unresolved.set(static_cast<double>(tracker->unresolved_links()));
    if (detector_on) {
      std::size_t total = 0;
      for (const Id id : engine->id_span())
        if (const SmallWorldNode* n = as_node(engine->find(id)))
          total += n->quarantined_count();
      quarantined.set(static_cast<double>(total));
    }
  });
}

void SmallWorldNetwork::add_nodes(const std::vector<NodeInit>& inits) {
  // Size every per-node table for the final count up front, so a bulk build
  // allocates each once instead of growing it step by step.
  const std::size_t total = size() + inits.size();
  engine_->reserve(total);
  store_->reserve(total);
  tracker_->reserve(total);
  for (const NodeInit& init : inits) add_node(init);
}

std::optional<std::uint64_t> SmallWorldNetwork::run_until_sorted_list(
    std::size_t max_rounds) {
  const std::uint64_t start = engine_->round();
  if (engine_->run_until([this] { return sorted_list(); }, max_rounds))
    return engine_->round() - start;
  return std::nullopt;
}

std::optional<std::uint64_t> SmallWorldNetwork::run_until_sorted_ring(
    std::size_t max_rounds) {
  const std::uint64_t start = engine_->round();
  if (engine_->run_until([this] { return sorted_ring(); }, max_rounds))
    return engine_->round() - start;
  return std::nullopt;
}

std::optional<std::uint64_t> SmallWorldNetwork::run_until_small_world(
    std::size_t max_rounds) {
  const std::uint64_t start = engine_->round();
  const auto ring_rounds = run_until_sorted_ring(max_rounds);
  if (!ring_rounds.has_value()) return std::nullopt;

  // Baseline forget counts at ring formation; Phase 4 needs one forget per
  // node after this point (Theorem 4.22).  The tracker snapshots the
  // baseline once (O(n)) and maintains the predicate incrementally; nodes
  // joining mid-run count as fresh once they forget at all, exactly like
  // the old oracle's `before = 0` for unknown ids.
  tracker_->arm_forget_epoch();
  const std::size_t used = static_cast<std::size_t>(*ring_rounds);
  if (used >= max_rounds) return std::nullopt;
  if (engine_->run_until([this] { return tracker_->epoch_all_forgot(); },
                        max_rounds - used))
    return engine_->round() - start;
  return std::nullopt;
}

bool SmallWorldNetwork::join(Id new_id, Id contact) {
  if (engine_->contains(new_id) || !engine_->contains(contact) || new_id == contact)
    return false;
  NodeInit init(new_id);
  if (contact < new_id) {
    init.l = contact;
  } else {
    init.r = contact;
  }
  add_node(init);
  return true;
}

bool SmallWorldNetwork::leave(Id id) {
  const SmallWorldNode* leaver = node(id);
  if (leaver == nullptr) return false;
  // The tracker reads the leaver's slot, which the engine's drop releases.
  tracker_->on_remove(*leaver);
  engine_->remove_process(id);
  // Fail-stop with neighbour detection (§IV.G): every variable pointing at
  // the departed node is cleared, producing the "gap" the analysis studies.
  // The survivor mutators notify the tracker themselves.
  for (const Id other : engine_->id_span()) {
    auto* n = node(other);
    if (n == nullptr) continue;
    if (n->l() == id) n->set_l(kNegInf);
    if (n->r() == id) n->set_r(kPosInf);
    if (n->ring() == id) n->set_ring(other);
    n->reset_lrls_matching(id);
  }
  return true;
}

bool SmallWorldNetwork::crash(Id id) {
  const SmallWorldNode* victim = node(id);
  if (victim == nullptr) return false;
  tracker_->on_remove(*victim);
  engine_->remove_process(id, /*purge=*/false);
  return true;
}

bool SmallWorldNetwork::sorted_list() const {
  const bool tracked = tracker_->sorted_list();
  if (options_.verify_tracker) {
    tracker_->verify_against(*engine_);
    SSSW_CHECK_MSG(tracked == is_sorted_list(*engine_),
                   "tracked sorted_list diverged from oracle");
  }
  return tracked;
}

bool SmallWorldNetwork::sorted_ring() const {
  const bool tracked = tracker_->sorted_ring();
  if (options_.verify_tracker) {
    tracker_->verify_against(*engine_);
    SSSW_CHECK_MSG(tracked == is_sorted_ring(*engine_),
                   "tracked sorted_ring diverged from oracle");
  }
  return tracked;
}

bool SmallWorldNetwork::lrls_resolve() const {
  const bool tracked = tracker_->lrls_resolve();
  if (options_.verify_tracker) {
    tracker_->verify_against(*engine_);
    SSSW_CHECK_MSG(tracked == core::lrls_resolve(*engine_),
                   "tracked lrls_resolve diverged from oracle");
  }
  return tracked;
}

Phase SmallWorldNetwork::phase() const {
  // Same classification ladder as detect_phase(), with the two top rungs
  // answered by the tracker in O(1).  BFS connectivity runs only below the
  // sorted-list phase, where the tracker predicates are all false and the
  // oracle would fall through to the same traversals.
  Phase tracked = Phase::kDisconnected;
  if (tracker_->sorted_ring()) {
    tracked = tracker_->all_forgot() ? Phase::kSmallWorld : Phase::kSortedRing;
  } else if (tracker_->sorted_list()) {
    tracked = Phase::kSortedList;
  } else if (lcc_weakly_connected(*engine_)) {
    tracked = Phase::kListConnected;
  } else {
    tracked = cc_weakly_connected(*engine_) ? Phase::kWeaklyConnected
                                           : Phase::kDisconnected;
  }
  if (options_.verify_tracker) {
    tracker_->verify_against(*engine_);
    SSSW_CHECK_MSG(tracked == detect_phase(*engine_),
                   "tracked phase diverged from oracle");
  }
  return tracked;
}

const SmallWorldNode* SmallWorldNetwork::node(Id id) const {
  return as_node(engine_->find(id));
}

SmallWorldNode* SmallWorldNetwork::node(Id id) {
  return as_node(engine_->find(id));
}

std::vector<std::size_t> SmallWorldNetwork::lrl_lengths() const {
  const IdIndex index(*engine_);
  std::vector<std::size_t> lengths;
  lengths.reserve(index.size());
  engine_->for_each([&](const sim::Process& process) {
    const auto* n = as_node(&process);
    if (n == nullptr) return;
    for (const SmallWorldNode::LongRangeLink& link : n->lrls()) {
      const Id target = link.target;
      if (!sim::is_node_id(target) || target == n->id() || !index.contains(target))
        continue;
      lengths.push_back(index.ring_distance(n->id(), target));
    }
  });
  return lengths;
}

SmallWorldNetwork make_stable_ring(std::vector<Id> ids, NetworkOptions options) {
  std::sort(ids.begin(), ids.end());
  const std::size_t n = ids.size();
  std::vector<NodeInit> inits;
  inits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeInit& init = inits.emplace_back(ids[i]);
    init.l = i == 0 ? kNegInf : ids[i - 1];
    init.r = i + 1 == n ? kPosInf : ids[i + 1];
    if (n >= 2) {
      if (i == 0) init.ring = ids.back();
      if (i + 1 == n) init.ring = ids.front();
    }
  }
  SmallWorldNetwork network(options);
  network.add_nodes(inits);
  return network;
}

SmallWorldNetwork make_stable_ring(std::size_t n, const NetworkOptions& options) {
  util::Rng rng(options.seed);
  return make_stable_ring(random_ids(n, rng), options);
}

std::vector<Id> crash_victims(std::span<const Id> live, double frac,
                              std::uint64_t seed) {
  if (frac <= 0.0 || live.size() < 3) return {};
  std::vector<Id> pool(live.begin(), live.end());
  const auto count = std::clamp<std::size_t>(
      static_cast<std::size_t>(frac * static_cast<double>(pool.size())), 1,
      pool.size() - 2);
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
  pool.resize(count);
  return pool;
}

std::vector<Id> random_ids(std::size_t n, util::Rng& rng) {
  std::vector<Id> ids;
  ids.reserve(n);
  while (ids.size() < n) {
    const Id candidate = rng.uniform();
    if (candidate == 0.0) continue;
    ids.push_back(candidate);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  // Collisions are ~impossible at double precision but handle them anyway.
  while (ids.size() < n) {
    const Id candidate = rng.uniform();
    if (candidate != 0.0 &&
        !std::binary_search(ids.begin(), ids.end(), candidate)) {
      ids.insert(std::upper_bound(ids.begin(), ids.end(), candidate), candidate);
    }
  }
  return ids;
}

}  // namespace sssw::core
