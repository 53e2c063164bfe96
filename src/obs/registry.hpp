// registry.hpp — the engine-wide metrics registry.
//
// Every layer of the system (sim::Engine, core::SmallWorldNetwork,
// service::LookupManager, routing::greedy, the experiment drivers) reports
// its paper observables through named metrics in one obs::Registry per
// simulation/trial:
//
//   * Counter   — monotone event count (messages delivered, lrl forgets, …)
//   * Gauge     — last-observed level (channel depth); merges by max, so a
//                 merged gauge reads as the high-water mark across trials
//   * Histogram — log-scale (power-of-two buckets) distribution of a
//                 nonnegative sample (greedy-route hops, link lengths)
//
// Counting by pull: the engine, the network and the lookup manager keep
// their event counts whether or not a registry is attached, and attaching
// makes their counters *views* of those counts (Counter::view), read when
// the registry is read.  An attached registry therefore costs nothing on
// the event path.  A view co-owns the block it reads, so the registry and
// the counting component may be destroyed in either order.  Gauges and
// histograms are pushed: their owner writes them, so the registry must be
// alive whenever an attached component runs.
//
// Metric names are dot-separated lowercase paths ("engine.messages.sent");
// the full catalog lives in doc/OBSERVABILITY.md, and the test suite fails
// if a name is emitted that the catalog does not document.
//
// Threading model: a Registry is not synchronized at all.  Every registry
// belongs to one trial, which runs on one thread; parallel Monte-Carlo
// trials (util::parallel_for) each own a private per-trial registry and the
// driver merges them in trial order afterwards — merge is associative and
// trial-ordered, so the merged result is deterministic no matter how the
// trials were scheduled.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace sssw::obs {

/// Monotone event counter: a tally of its own (add), plus, once bound by
/// view(), the growth of counts its owner keeps since the binding.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_ + viewed() - base_; }
  /// Zeroes the counter; a view counts on from its source's current value.
  void reset() noexcept {
    value_ = 0;
    base_ = viewed();
  }
  void merge(const Counter& other) noexcept { add(other.value()); }

  /// Makes this counter read the sum of `counts`: counts that only ever
  /// grow, kept alive by `owner`.  Counting starts now (not retroactive),
  /// and the value read so far is kept, so re-binding to a new source
  /// accumulates across both.
  void view(std::shared_ptr<const void> owner,
            std::span<const std::uint64_t> counts) noexcept {
    value_ = value();
    owner_ = std::move(owner);
    counts_ = counts;
    base_ = viewed();
  }

 private:
  std::uint64_t viewed() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t count : counts_) sum += count;
    return sum;
  }

  std::uint64_t value_ = 0;
  std::uint64_t base_ = 0;  ///< the viewed sum at the last view() or reset()
  std::shared_ptr<const void> owner_;
  std::span<const std::uint64_t> counts_;
};

/// Last-observed level.  Merge keeps the maximum, so a gauge merged across
/// trials reads as a high-water mark (channel depth, live-node count).
class Gauge {
 public:
  void set(double v) noexcept {
    value_ = v;
    ever_set_ = true;
  }
  double value() const noexcept { return value_; }
  void reset() noexcept {
    value_ = 0.0;
    ever_set_ = false;
  }
  void merge(const Gauge& other) noexcept {
    if (!other.ever_set_) return;
    if (!ever_set_ || other.value_ > value_) value_ = other.value_;
    ever_set_ = true;
  }

 private:
  double value_ = 0.0;
  bool ever_set_ = false;
};

/// Log-scale histogram of nonnegative samples.  Bucket i counts samples in
/// (2^(i-1), 2^i]; bucket 0 counts samples in [0, 1].  Power-of-two edges
/// make merge exact (bucketwise add) and cover any dynamic range without
/// configuration, at the cost of coarse (factor-2) resolution — the right
/// trade for hop counts and ring distances, whose paper-relevant shape is
/// logarithmic anyway.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double x) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Count in bucket i (upper edge 2^i, except bucket 0 whose range starts
  /// at 0).
  std::uint64_t bucket(std::size_t i) const noexcept { return buckets_[i]; }
  /// Inclusive upper edge of bucket i.
  static double bucket_upper(std::size_t i) noexcept;

  /// Approximate q-quantile (q in [0,1]): linear interpolation inside the
  /// bucket containing the q-th sample.  Exact to within one bucket width.
  double quantile(double q) const noexcept;

  void reset() noexcept;
  void merge(const Histogram& other) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A named collection of metrics.  Lookup-or-create by name; returned
/// references stay valid for the life of the registry (std::map storage).
/// Registering the same name with two different kinds is a programming
/// error and fails loudly.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Lookup without creation; nullptr if absent or of a different kind.
  const Counter* find_counter(const std::string& name) const noexcept;
  const Gauge* find_gauge(const std::string& name) const noexcept;
  const Histogram* find_histogram(const std::string& name) const noexcept;

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Name-ordered iteration (std::map order) — snapshots are reproducible.
  const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const noexcept { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Folds `other` into this registry: counters and histograms add,
  /// gauges keep the maximum.  Metrics absent on either side are created/
  /// kept; same-name-different-kind fails loudly.  Merging trial registries
  /// in trial order yields a deterministic result regardless of how the
  /// trials were scheduled across threads.
  void merge(const Registry& other);

  /// Zeroes every metric, keeping the registered names (so cached metric
  /// references held by instrumented components stay valid); views count
  /// on from their sources' current values.
  void reset() noexcept;

 private:
  void check_name(const std::string& name, int kind) const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Flattens every metric of `registry` to (name, value) pairs, name-ordered
/// within each kind: counters and gauges pass through verbatim; a histogram
/// `h` becomes `h_count`, `h_mean`, and `h_p90`.  bench_engine publishes its
/// registry as google-benchmark counters this way; sweep cells write theirs
/// whole (obs::to_jsonl, snapshotter.hpp).
std::vector<std::pair<std::string, double>> flatten(const Registry& registry);

}  // namespace sssw::obs
