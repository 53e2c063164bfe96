// snapshot_reader.hpp — the strict reader of one obs::to_jsonl line, for
// the round-trip tests in tests/test_obs.cpp.  Nothing in the library reads
// its own snapshots back, so the reader lives with the tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace sssw::obs {

/// One parsed snapshot line.  Histogram buckets come back as
/// (upper_edge, count) pairs in ascending edge order.
struct ParsedSnapshot {
  struct HistogramData {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };

  std::uint64_t round = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
};

namespace snapshot_reader_detail {

using util::JsonValue;

/// Calls `entry(name, value)` for each member of a `{"name": value, ...}`
/// section; false if `section` is not an object or any entry fails.
template <typename Fn>
bool for_each_member(const JsonValue& section, Fn&& entry) {
  if (section.kind() != JsonValue::Kind::kObject) return false;
  for (std::size_t i = 0; i < section.keys().size(); ++i)
    if (!entry(section.keys()[i], section.items()[i])) return false;
  return true;
}

inline bool parse_histogram(const JsonValue& value,
                            ParsedSnapshot::HistogramData* out) {
  const auto count = value["count"].number<std::uint64_t>();
  const auto sum = value["sum"].number<double>();
  const auto min = value["min"].number<double>();
  const auto max = value["max"].number<double>();
  const JsonValue& buckets = value["buckets"];
  if (!count || !sum || !min || !max ||
      buckets.kind() != JsonValue::Kind::kArray)
    return false;
  out->count = *count;
  out->sum = *sum;
  out->min = *min;
  out->max = *max;
  for (const JsonValue& bucket : buckets.items()) {
    if (bucket.items().size() != 2) return false;
    const auto edge = bucket.items()[0].number<double>();
    const auto hits = bucket.items()[1].number<std::uint64_t>();
    if (!edge || !hits) return false;
    out->buckets.emplace_back(*edge, *hits);
  }
  return true;
}

}  // namespace snapshot_reader_detail

/// Parses one line produced by to_jsonl() with util::parse_json.  Returns
/// false (and leaves *out unspecified) on malformed JSON or a missing or
/// mistyped section; counters read back exactly as 64-bit integers.
inline bool parse_snapshot(const std::string& line, ParsedSnapshot* out) {
  using snapshot_reader_detail::for_each_member;
  using snapshot_reader_detail::JsonValue;
  *out = ParsedSnapshot{};
  const auto doc = util::parse_json(line);
  if (!doc) return false;
  const auto round = (*doc)["round"].number<std::uint64_t>();
  if (!round) return false;
  out->round = *round;
  return for_each_member((*doc)["counters"],
                         [&](const std::string& name, const JsonValue& value) {
                           const auto count = value.number<std::uint64_t>();
                           if (count) out->counters[name] = *count;
                           return count.has_value();
                         }) &&
         for_each_member((*doc)["gauges"],
                         [&](const std::string& name, const JsonValue& value) {
                           const auto gauge = value.number<double>();
                           if (gauge) out->gauges[name] = *gauge;
                           return gauge.has_value();
                         }) &&
         for_each_member((*doc)["histograms"],
                         [&](const std::string& name, const JsonValue& value) {
                           return snapshot_reader_detail::parse_histogram(
                               value, &out->histograms[name]);
                         });
}

}  // namespace sssw::obs
