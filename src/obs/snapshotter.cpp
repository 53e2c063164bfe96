#include "obs/snapshotter.hpp"

#include "util/check.hpp"
#include "util/json.hpp"

namespace sssw::obs {

namespace {

using util::append_json_number;
using util::JsonValue;

void append_histogram(std::string& out, const Histogram& histogram) {
  out += "{\"count\":";
  append_json_number(out, histogram.count());
  out += ",\"sum\":";
  append_json_number(out, histogram.sum());
  out += ",\"min\":";
  append_json_number(out, histogram.min());
  out += ",\"max\":";
  append_json_number(out, histogram.max());
  out += ",\"buckets\":[";
  const char* separator = "";
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (histogram.bucket(i) == 0) continue;
    out += separator;
    separator = ",";
    out += '[';
    append_json_number(out, Histogram::bucket_upper(i));
    out += ',';
    append_json_number(out, histogram.bucket(i));
    out += ']';
  }
  out += "]}";
}

/// Calls `entry(name, value)` for each member of a `{"name": value, ...}`
/// section; false if `section` is not an object or any entry fails.
template <typename Fn>
bool for_each_member(const JsonValue& section, Fn&& entry) {
  if (section.kind() != JsonValue::Kind::kObject) return false;
  for (std::size_t i = 0; i < section.keys().size(); ++i)
    if (!entry(section.keys()[i], section.items()[i])) return false;
  return true;
}

bool parse_histogram(const JsonValue& value,
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

}  // namespace

std::string to_jsonl(const Registry& registry, std::uint64_t round) {
  std::string out = "{\"round\":";
  append_json_number(out, round);
  // One {"name":value,...} section per metric kind, in registry order.
  const auto section = [&out](const char* kind, const auto& metrics,
                              const auto& append_value) {
    out += ",\"";
    out += kind;
    out += "\":{";
    const char* separator = "";
    for (const auto& [name, metric] : metrics) {
      out += separator;
      separator = ",";
      util::append_json_string(out, name);
      out += ':';
      append_value(metric);
    }
    out += '}';
  };
  section("counters", registry.counters(),
          [&out](const Counter& c) { append_json_number(out, c.value()); });
  section("gauges", registry.gauges(),
          [&out](const Gauge& g) { append_json_number(out, g.value()); });
  section("histograms", registry.histograms(),
          [&out](const Histogram& h) { append_histogram(out, h); });
  out += '}';
  return out;
}

bool parse_snapshot(const std::string& line, ParsedSnapshot* out) {
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
                           return parse_histogram(value,
                                                  &out->histograms[name]);
                         });
}

// --- Snapshotter ------------------------------------------------------------

Snapshotter::Snapshotter(const Registry& registry, const std::string& path,
                         std::uint64_t every)
    : registry_(registry), file_(path), out_(file_), every_(every), next_(every) {
  SSSW_CHECK_MSG(every > 0, "snapshot period must be positive");
}

Snapshotter::Snapshotter(const Registry& registry, std::ostream& out,
                         std::uint64_t every)
    : registry_(registry), out_(out), every_(every), next_(every) {
  SSSW_CHECK_MSG(every > 0, "snapshot period must be positive");
}

bool Snapshotter::ok() const noexcept {
  // When writing to a caller-owned stream, file_ was never opened and
  // reports good() == false only after a failed open — distinguish by
  // whether out_ aliases file_.
  return &out_ != &file_ || file_.is_open();
}

void Snapshotter::poll(std::uint64_t round) {
  if (round < next_) return;
  write(round);
  next_ = round + every_;
}

void Snapshotter::write(std::uint64_t round) {
  if (lines_ > 0 && round == last_round_) return;
  out_ << to_jsonl(registry_, round) << '\n';
  out_.flush();
  ++lines_;
  last_round_ = round;
}

}  // namespace sssw::obs
