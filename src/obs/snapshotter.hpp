// snapshotter.hpp — periodic JSONL export of a metrics registry.
//
// One snapshot is one JSON object on one line (JSONL), carrying the round
// number and every registered metric.  The format is append-only and
// self-describing, so a run's file can be tailed live, diffed between runs,
// or loaded into any JSON-aware tool; doc/OBSERVABILITY.md documents the
// schema with a worked example.
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "obs/registry.hpp"

namespace sssw::obs {

/// Serializes `registry` at `round` as one JSON line (no trailing newline).
/// Counters print as integers, gauges as shortest-round-trip doubles,
/// histograms as {count, sum, min, max, buckets:[[upper_edge, count], ...]}
/// with zero buckets omitted.
std::string to_jsonl(const Registry& registry, std::uint64_t round);

/// Writes registry snapshots every `every` rounds to a stream or file.
/// Drive it from an engine round hook:
///
///   obs::Registry registry;
///   network.attach_metrics(registry);
///   obs::Snapshotter snaps(registry, "run.jsonl", /*every=*/100);
///   network.engine().add_round_hook(
///       [&](std::uint64_t round) { snaps.poll(round); });
///   ...
///   snaps.write(network.engine().round());  // final state, explicit
class Snapshotter {
 public:
  /// Appends to `path`; ok() reports whether the file opened.
  Snapshotter(const Registry& registry, const std::string& path,
              std::uint64_t every);
  /// Writes to a caller-owned stream (tests, stdout export).
  Snapshotter(const Registry& registry, std::ostream& out, std::uint64_t every);

  bool ok() const noexcept;
  std::uint64_t every() const noexcept { return every_; }
  std::uint64_t lines_written() const noexcept { return lines_; }

  /// Writes a snapshot when `round` has advanced `every` rounds past the
  /// last written one.  Cheap no-op otherwise; call it once per round.
  void poll(std::uint64_t round);

  /// Writes a snapshot unconditionally — unless one was already written for
  /// this exact round (so a final flush never duplicates the last poll).
  void write(std::uint64_t round);

 private:
  const Registry& registry_;
  std::ofstream file_;
  std::ostream& out_;
  std::uint64_t every_;
  std::uint64_t next_ = 0;
  std::uint64_t lines_ = 0;
  std::uint64_t last_round_ = 0;
};

}  // namespace sssw::obs
