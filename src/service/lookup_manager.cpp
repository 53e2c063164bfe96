#include "service/lookup_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/node.hpp"

namespace sssw::service {

namespace {

LookupStatus status_of(core::LookupReason reason) noexcept {
  switch (reason) {
    case core::LookupReason::kNoProgress:
      return LookupStatus::kNoProgress;
    case core::LookupReason::kTargetDead:
      return LookupStatus::kTargetDead;
    case core::LookupReason::kTtlExhausted:
      return LookupStatus::kTtlExhausted;
    case core::LookupReason::kNone:
      break;
  }
  return LookupStatus::kTimeout;
}

}  // namespace

const char* to_string(LookupStatus status) noexcept {
  switch (status) {
    case LookupStatus::kSucceeded:
      return "succeeded";
    case LookupStatus::kTimeout:
      return "timeout";
    case LookupStatus::kNoProgress:
      return "no-progress";
    case LookupStatus::kTargetDead:
      return "target-dead";
    case LookupStatus::kTtlExhausted:
      return "ttl-exhausted";
  }
  return "unknown";
}

LookupMetrics::LookupMetrics(obs::Registry& registry)
    : pending(registry.gauge("service.lookup.pending")),
      hops(registry.histogram("service.lookup.hops")),
      latency(registry.histogram("service.lookup.latency")) {}

LookupManager::LookupManager(core::SmallWorldNetwork& net,
                             const LookupConfig& config)
    : net_(net),
      config_(config),
      rng_(util::derive_stream(config.seed, 0x6c6f6f6b7570ull /* "lookup" */)) {
  if (config_.ttl > core::kLookupMaxTtl) config_.ttl = core::kLookupMaxTtl;
  if (config_.ttl == 0) config_.ttl = 1;
  if (config_.timeout_rounds == 0) config_.timeout_rounds = 1;
  hook_ = net_.engine().add_round_hook(
      [this](std::uint64_t round) { on_round(round); });
}

LookupManager::~LookupManager() { net_.engine().remove_round_hook(hook_); }

void LookupManager::attach_metrics(obs::Registry& registry) {
  using T = Totals;
  static constexpr std::pair<const char*, std::uint64_t T::*> kCounters[] = {
      {"service.lookup.issued", &T::issued},
      {"service.lookup.attempts", &T::attempts},
      {"service.lookup.retries", &T::retries},
      {"service.lookup.hedges", &T::hedges},
      {"service.lookup.succeeded", &T::succeeded},
      {"service.lookup.failed", &T::failed},
      {"service.lookup.stale", &T::stale},
      {"service.lookup.deadletter.timeout", &T::deadletter_timeout},
      {"service.lookup.deadletter.no-progress", &T::deadletter_no_progress},
      {"service.lookup.deadletter.target-dead", &T::deadletter_target_dead},
      {"service.lookup.deadletter.ttl", &T::deadletter_ttl},
  };
  for (const auto& [name, field] : kCounters)
    registry.counter(name).view(totals_, {&((*totals_).*field), 1});
  metrics_.emplace(registry);
}

std::uint64_t LookupManager::issue(sim::Id source, sim::Id target) {
  const std::uint64_t round = net_.engine().round();
  const std::uint32_t slot = acquire_slot();
  Request& req = slots_[slot];
  req.source = source;
  req.target = target;
  req.request = next_request_++;
  req.first_issue = round;
  req.retries_used = 0;
  req.wire_attempts = 0;
  req.hedged = false;
  req.live = true;
  req.last_reason = core::LookupReason::kNone;
  req.live_seqs.clear();
  ++pending_;
  ++totals_->issued;
  issue_attempt(slot, round, /*is_retry=*/false, /*is_hedge=*/false);
  return req.request;
}

void LookupManager::on_round(std::uint64_t round) {
  // Responses first, so a hit landing on its deadline round still wins.
  drain_inboxes(round);
  process_timeouts(round);
  process_hedges(round);
  process_retries(round);
  issue_load(round);
  if (metrics_) metrics_->pending.set(static_cast<double>(pending_));
}

void LookupManager::drain_inboxes(std::uint64_t round) {
  // Ascending-id drain over manager-enabled origins keeps completion order
  // canonical.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < enabled_sources_.size(); ++i) {
    const sim::Id id = enabled_sources_[i];
    core::SmallWorldNode* node = net_.node(id);
    if (node == nullptr) continue;  // crashed: forget it
    enabled_sources_[kept++] = id;
    if (!node->service_enabled()) continue;
    for (const sim::Message& m : node->drain_service_inbox()) {
      const auto token = core::unpack_lookup_token(m.id3);
      if (!token) {
        ++totals_->stale;
        continue;
      }
      const auto it = seq_to_slot_.find(token->seq);
      if (it == seq_to_slot_.end()) {
        // Late or duplicate response for a request that already completed.
        ++totals_->stale;
        continue;
      }
      const std::uint32_t slot = it->second;
      if (m.type == core::kLookupHit) {
        const std::uint32_t hops =
            config_.ttl >= token->ttl ? config_.ttl - token->ttl : 0;
        complete(slot, /*ok=*/true, LookupStatus::kSucceeded, hops, round);
      } else {
        attempt_failed(slot, token->seq, token->reason, round);
      }
    }
  }
  enabled_sources_.resize(kept);
}

void LookupManager::process_timeouts(std::uint64_t round) {
  while (!timeout_wheel_.empty() && timeout_wheel_.begin()->first <= round) {
    const std::vector<std::uint64_t> due =
        std::move(timeout_wheel_.begin()->second);
    timeout_wheel_.erase(timeout_wheel_.begin());
    for (const std::uint64_t seq : due) {
      const auto it = seq_to_slot_.find(seq);
      if (it == seq_to_slot_.end()) continue;  // already answered
      attempt_failed(it->second, seq, core::LookupReason::kNone, round);
    }
  }
}

void LookupManager::process_hedges(std::uint64_t round) {
  while (!hedge_wheel_.empty() && hedge_wheel_.begin()->first <= round) {
    const std::vector<SlotRef> due = std::move(hedge_wheel_.begin()->second);
    hedge_wheel_.erase(hedge_wheel_.begin());
    for (const SlotRef& ref : due) {
      Request* req = slot_of(ref);
      // Hedge only while the original attempt is still out, and only once.
      if (req == nullptr || req->hedged || req->live_seqs.empty()) continue;
      req->hedged = true;
      issue_attempt(ref.first, round, /*is_retry=*/false, /*is_hedge=*/true);
    }
  }
}

void LookupManager::process_retries(std::uint64_t round) {
  while (!retry_wheel_.empty() && retry_wheel_.begin()->first <= round) {
    const std::vector<SlotRef> due = std::move(retry_wheel_.begin()->second);
    retry_wheel_.erase(retry_wheel_.begin());
    for (const SlotRef& ref : due) {
      Request* req = slot_of(ref);
      if (req == nullptr || !req->live_seqs.empty()) continue;
      issue_attempt(ref.first, round, /*is_retry=*/true, /*is_hedge=*/false);
    }
  }
}

void LookupManager::issue_load(std::uint64_t /*round*/) {
  load_accumulator_ += config_.rate;
  while (load_accumulator_ >= 1.0) {
    load_accumulator_ -= 1.0;
    const auto span = net_.engine().id_span();
    if (span.size() < 2) continue;  // credit burned: no pair to look up
    const sim::Id target = span[rng_.below(span.size())];
    const sim::Id source = sample_live(target);
    if (!std::isfinite(source)) continue;
    issue(source, target);
  }
}

std::uint32_t LookupManager::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

LookupManager::Request* LookupManager::slot_of(const SlotRef& ref) {
  Request& req = slots_[ref.first];
  if (!req.live || req.generation != ref.second) return nullptr;
  return &req;
}

void LookupManager::issue_attempt(std::uint32_t slot, std::uint64_t round,
                                  bool is_retry, bool is_hedge) {
  Request& req = slots_[slot];
  if (!net_.engine().contains(req.source)) {
    // Graceful degradation: the origin crashed mid-request, so re-home the
    // retry on a surviving node instead of letting the request starve.
    const sim::Id fallback = sample_live(req.target);
    if (!std::isfinite(fallback)) {
      complete(slot, /*ok=*/false, LookupStatus::kTimeout, 0, round);
      return;
    }
    req.source = fallback;
  }
  if (core::SmallWorldNode* node = net_.node(req.source)) {
    if (!node->service_enabled()) {
      node->enable_service();
    }
    const auto pos = std::lower_bound(enabled_sources_.begin(),
                                      enabled_sources_.end(), req.source);
    if (pos == enabled_sources_.end() || *pos != req.source) {
      enabled_sources_.insert(pos, req.source);
    }
  }
  const std::uint64_t seq = next_seq_++ & core::kLookupMaxSeq;
  const core::LookupToken token{seq, config_.ttl, core::LookupReason::kNone};
  const sim::Message msg{core::kLookup, req.target, req.source,
                         core::pack_lookup_token(token)};
  net_.engine().inject(req.source, msg);
  req.live_seqs.push_back(seq);
  seq_to_slot_.emplace(seq, slot);
  ++req.wire_attempts;
  ++totals_->attempts;
  if (is_retry) ++totals_->retries;
  if (is_hedge) ++totals_->hedges;
  timeout_wheel_[round + config_.timeout_rounds].push_back(seq);
  if (config_.hedge_after > 0 && !is_hedge && !req.hedged) {
    hedge_wheel_[round + config_.hedge_after].emplace_back(slot,
                                                           req.generation);
  }
}

void LookupManager::attempt_failed(std::uint32_t slot, std::uint64_t seq,
                                   core::LookupReason reason,
                                   std::uint64_t round) {
  Request& req = slots_[slot];
  seq_to_slot_.erase(seq);
  const auto pos = std::find(req.live_seqs.begin(), req.live_seqs.end(), seq);
  if (pos != req.live_seqs.end()) req.live_seqs.erase(pos);
  if (reason != core::LookupReason::kNone) req.last_reason = reason;
  if (!req.live_seqs.empty()) return;  // a hedged sibling is still out
  if (req.retries_used < config_.max_retries) {
    ++req.retries_used;
    std::uint64_t delay = static_cast<std::uint64_t>(config_.backoff_rounds)
                          << (req.retries_used - 1);
    if (config_.backoff_jitter > 0) delay += rng_.below(config_.backoff_jitter);
    if (delay == 0) delay = 1;
    retry_wheel_[round + delay].emplace_back(slot, req.generation);
    return;
  }
  // Dead-letter with the most recent wire reason; a request that never got
  // any response back is a timeout.
  complete(slot, /*ok=*/false, status_of(req.last_reason), 0, round);
}

void LookupManager::complete(std::uint32_t slot, bool ok, LookupStatus status,
                             std::uint32_t hops, std::uint64_t round) {
  Request& req = slots_[slot];
  for (const std::uint64_t seq : req.live_seqs) seq_to_slot_.erase(seq);
  req.live_seqs.clear();
  const std::uint64_t latency = round - req.first_issue;
  Totals& totals = *totals_;
  if (ok) {
    ++totals.succeeded;
    totals.hop_sum += hops;
    totals.latency_sum += latency;
    if (metrics_) {
      metrics_->hops.observe(static_cast<double>(hops));
      metrics_->latency.observe(static_cast<double>(latency));
    }
  } else {
    ++totals.failed;
    switch (status) {
      case LookupStatus::kTimeout:
        ++totals.deadletter_timeout;
        break;
      case LookupStatus::kNoProgress:
        ++totals.deadletter_no_progress;
        break;
      case LookupStatus::kTargetDead:
        ++totals.deadletter_target_dead;
        break;
      case LookupStatus::kTtlExhausted:
        ++totals.deadletter_ttl;
        break;
      case LookupStatus::kSucceeded:
        break;
    }
  }
  if (completion_hook_) {
    LookupCompletion record;
    record.request = req.request;
    record.round = round;
    record.source = req.source;
    record.target = req.target;
    record.ok = ok;
    record.status = status;
    record.hops = hops;
    record.latency_rounds = latency;
    record.attempts = req.wire_attempts;
    completion_hook_(record);
  }
  req.live = false;
  ++req.generation;
  free_slots_.push_back(slot);
  --pending_;
}

sim::Id LookupManager::sample_live(sim::Id exclude) {
  const auto span = net_.engine().id_span();
  if (span.empty()) return sim::kNegInf;
  const auto pos = std::lower_bound(span.begin(), span.end(), exclude);
  const bool excluded = pos != span.end() && *pos == exclude;
  const std::size_t usable = span.size() - (excluded ? 1 : 0);
  if (usable == 0) return sim::kNegInf;
  std::size_t idx = static_cast<std::size_t>(rng_.below(usable));
  if (excluded && idx >= static_cast<std::size_t>(pos - span.begin())) ++idx;
  return span[idx];
}

}  // namespace sssw::service
