#include "obs/snapshotter.hpp"

#include "util/check.hpp"
#include "util/json.hpp"

namespace sssw::obs {

namespace {

using util::append_json_number;

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
