// lookup_manager.hpp — deterministic open-loop lookup load over the live
// engine (doc/SERVICE.md).
//
// The LookupManager turns the frozen-view greedy evaluation into an in-band
// *service*: lookups are real kLookup messages riding the channels
// concurrently with stabilization, churn, fault plans, message loss, and
// crashes, and every in-flight lookup gets the full robustness treatment —
// per-hop TTL (core::LookupToken), end-to-end timeout with bounded retries
// under exponential backoff + deterministic jitter, optional hedged
// re-issue after a latency threshold, and a typed dead-letter reason
// instead of a silent drop.
//
// Determinism.  The manager is NOT an engine process — a foreign process
// id would pollute id_span()/IdIndex and every sorted-ring predicate.  It
// drives everything from an engine *round hook*, which the engine fires
// after each round (sim/engine.hpp).  All manager RNG draws, timer-wheel
// pops, and histogram writes happen there in a canonical order, and lookup
// *completions* reach the manager through per-origin inboxes
// (SmallWorldNode::drain_service_inbox, written only by the owning node's
// receive action) drained in ascending-id order — so lookup trajectories
// are replayable from (config, seed), the same contract the engine keeps
// (DESIGN.md §8).  The engine's timer facility is per-process, so the
// manager keeps its own deadline wheels patterned on the same
// round-keyed-map design, clocked by the hook.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/messages.hpp"
#include "core/network.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace sssw::service {

/// Open-loop workload + robustness knobs.  All defaults are exact in a
/// double / small enough for the token encoding (core/messages.hpp).
struct LookupConfig {
  double rate = 1.0;          ///< lookups issued per round (fractional: accumulator)
  std::uint32_t ttl = 128;    ///< per-hop budget (≤ core::kLookupMaxTtl)
  std::uint32_t timeout_rounds = 64;  ///< per-attempt end-to-end timeout
  std::uint32_t max_retries = 2;      ///< extra attempts after the first
  std::uint32_t backoff_rounds = 8;   ///< base retry delay; doubles per retry
  std::uint32_t backoff_jitter = 4;   ///< deterministic jitter in [0, jitter)
  std::uint32_t hedge_after = 0;      ///< re-issue in parallel after this many rounds (0 = off)
  std::uint64_t seed = 1;             ///< manager RNG stream (pair sampling, jitter)

  friend bool operator==(const LookupConfig&, const LookupConfig&) = default;
};

/// Final state of one lookup request (not one wire attempt).
enum class LookupStatus : std::uint8_t {
  kSucceeded,
  kTimeout,       ///< last live attempt expired with no response
  kNoProgress,    ///< last response: no live pointer made progress
  kTargetDead,    ///< last response: a hop's detector holds the target dead
  kTtlExhausted,  ///< last response: hop budget ran out
};
const char* to_string(LookupStatus status) noexcept;

/// One completed request, delivered to the completion hook at drain time.
struct LookupCompletion {
  std::uint64_t request = 0;  ///< value returned by issue(); monotone
  std::uint64_t round = 0;    ///< completion round
  sim::Id source = sim::kNegInf;
  sim::Id target = sim::kNegInf;
  bool ok = false;
  LookupStatus status = LookupStatus::kTimeout;
  std::uint32_t hops = 0;            ///< valid iff ok
  std::uint64_t latency_rounds = 0;  ///< completion − first issue
  std::uint32_t attempts = 1;        ///< wire attempts (1 + retries + hedges)
};

/// The pushed service.* metrics (doc/OBSERVABILITY.md); the service.*
/// counters are views of LookupManager::Totals.
struct LookupMetrics {
  explicit LookupMetrics(obs::Registry& registry);

  obs::Gauge& pending;        ///< in-flight requests at round end (high-water)
  obs::Histogram& hops;       ///< hop counts of successful lookups
  obs::Histogram& latency;    ///< round latency of successful lookups
};

class LookupManager {
 public:
  /// Registers the round hook on `net`'s engine.  The manager must be
  /// destroyed before the network (it deregisters the hook in its dtor).
  LookupManager(core::SmallWorldNetwork& net, const LookupConfig& config);
  ~LookupManager();

  LookupManager(const LookupManager&) = delete;
  LookupManager& operator=(const LookupManager&) = delete;

  /// Exposes the service.* metrics in `registry`: the counters become views
  /// of totals() (not retroactive), and the pending gauge and the hop and
  /// latency histograms are written from the round hook, so the registry
  /// must be alive whenever the network runs with this manager.  The
  /// registry and the manager may be destroyed in either order.
  void attach_metrics(obs::Registry& registry);

  /// Called once per completed request, from the sequential round hook.
  void set_completion_hook(std::function<void(const LookupCompletion&)> hook) {
    completion_hook_ = std::move(hook);
  }

  /// Live rate knob (e.g. quiesce before a measurement wave).
  void set_rate(double rate) noexcept { config_.rate = rate; }
  const LookupConfig& config() const noexcept { return config_; }

  /// Issues one lookup now (outside the open-loop load; used by the fuzz
  /// liveness wave and tests).  Call from sequential sections only.
  /// Returns the request id echoed in the LookupCompletion.
  std::uint64_t issue(sim::Id source, sim::Id target);

  /// Requests still in flight (issued, neither hit nor dead-lettered).
  std::size_t pending() const noexcept { return pending_; }

  /// Aggregate counters, maintained whether or not a registry is attached —
  /// the deterministic digest surface for the trajectory-digest and fuzz
  /// tests, and the counts an attached registry's service.* counters view.
  struct Totals {
    std::uint64_t issued = 0;    ///< requests issued (first attempts)
    std::uint64_t attempts = 0;  ///< wire attempts (first + retries + hedges)
    std::uint64_t retries = 0;   ///< retry attempts after a failed attempt
    std::uint64_t hedges = 0;    ///< hedged parallel attempts
    std::uint64_t succeeded = 0;  ///< requests completed with a hit
    std::uint64_t failed = 0;     ///< requests dead-lettered
    std::uint64_t stale = 0;      ///< late/duplicate responses dropped
    std::uint64_t deadletter_timeout = 0;      ///< failures typed kTimeout
    std::uint64_t deadletter_no_progress = 0;  ///< failures typed kNoProgress
    std::uint64_t deadletter_target_dead = 0;  ///< failures typed kTargetDead
    std::uint64_t deadletter_ttl = 0;          ///< failures typed kTtlExhausted
    std::uint64_t hop_sum = 0;      ///< over successful lookups
    std::uint64_t latency_sum = 0;  ///< over successful lookups

    friend bool operator==(const Totals&, const Totals&) = default;
  };
  const Totals& totals() const noexcept { return *totals_; }

 private:
  struct Request {
    sim::Id source = sim::kNegInf;
    sim::Id target = sim::kNegInf;
    std::uint64_t request = 0;      ///< external id (monotone)
    std::uint64_t first_issue = 0;  ///< round of the first attempt
    std::uint32_t retries_used = 0;
    std::uint32_t wire_attempts = 0;
    std::uint32_t generation = 0;  ///< guards recycled slots in the wheels
    bool live = false;
    bool hedged = false;
    core::LookupReason last_reason = core::LookupReason::kNone;
    std::vector<std::uint64_t> live_seqs;  ///< outstanding attempt seqs
  };
  using SlotRef = std::pair<std::uint32_t, std::uint32_t>;  ///< (slot, generation)

  void on_round(std::uint64_t round);
  void drain_inboxes(std::uint64_t round);
  void process_timeouts(std::uint64_t round);
  void process_hedges(std::uint64_t round);
  void process_retries(std::uint64_t round);
  void issue_load(std::uint64_t round);

  std::uint32_t acquire_slot();
  Request* slot_of(const SlotRef& ref);
  /// Sends one wire attempt for the request in `slot` (re-sampling the
  /// source if it crashed), arming timeout and hedge deadlines.
  void issue_attempt(std::uint32_t slot, std::uint64_t round, bool is_retry,
                     bool is_hedge);
  void attempt_failed(std::uint32_t slot, std::uint64_t seq,
                      core::LookupReason reason, std::uint64_t round);
  void complete(std::uint32_t slot, bool ok, LookupStatus status,
                std::uint32_t hops, std::uint64_t round);
  /// A live node other than `exclude` (uniform over id_span), or kNegInf.
  sim::Id sample_live(sim::Id exclude);

  core::SmallWorldNetwork& net_;
  LookupConfig config_;
  sim::Engine::HookId hook_ = 0;
  util::Rng rng_;
  double load_accumulator_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_request_ = 0;
  std::size_t pending_ = 0;
  // Shared with the registry counters that view it.
  std::shared_ptr<Totals> totals_ = std::make_shared<Totals>();
  std::optional<LookupMetrics> metrics_;
  std::function<void(const LookupCompletion&)> completion_hook_;
  std::vector<sim::Id> enabled_sources_;  ///< sorted; only these get drained
  std::vector<Request> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> seq_to_slot_;
  // Deadline wheels, keyed by absolute round (ordered maps: pops are
  // canonical).  Timeout entries are (seq) — stale ones no-op when the seq
  // is gone; retry/hedge entries are generation-guarded slot refs.
  std::map<std::uint64_t, std::vector<std::uint64_t>> timeout_wheel_;
  std::map<std::uint64_t, std::vector<SlotRef>> retry_wheel_;
  std::map<std::uint64_t, std::vector<SlotRef>> hedge_wheel_;
};

}  // namespace sssw::service
