#include "analysis/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <system_error>
#include <thread>

#include "analysis/experiments.hpp"
#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "util/fnv.hpp"
#include "util/json.hpp"

namespace sssw::analysis {

namespace {

// --- rendering primitives --------------------------------------------------

// Shortest round-trip rendering, the same contract as the snapshotter: the
// canonical spec strings and JSON files must re-parse to the exact value.
using util::append_json_number;
using util::append_json_string;

std::string render_double(double value) {
  std::string out;
  append_json_number(out, value);
  return out;
}

// --- parsing primitives ----------------------------------------------------

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_double(std::string_view text, double* out) {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t' ||
                           text.front() == '\n' || text.front() == '\r'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\n' || text.back() == '\r'))
    text.remove_suffix(1);
  return text;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
}

// --- hashing ---------------------------------------------------------------

std::string hex16(std::uint64_t hash) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i)
    out[15 - i] = kDigits[(hash >> (4 * i)) & 0xf];
  return out;
}

}  // namespace

// --- axis specs ------------------------------------------------------------

std::optional<FaultSpec> parse_fault_spec(const std::string& spec) {
  const auto parts = split(spec, ':');
  const std::string_view kind = parts[0];
  FaultSpec out;
  auto prob = [&](std::string_view text, double* p) {
    return parse_double(text, p) && *p >= 0.0 && *p < 1.0;
  };
  if (kind == "none") {
    if (parts.size() != 1) return std::nullopt;
    return out;
  }
  if (kind == "dup") {
    if (parts.size() != 2 ||
        !prob(parts[1], &out.plan.duplicate_probability))
      return std::nullopt;
    out.canonical = "dup:" + render_double(out.plan.duplicate_probability);
    return out;
  }
  if (kind == "delay") {
    std::uint64_t max_rounds = 0;
    if (parts.size() != 3 || !prob(parts[1], &out.plan.delay_probability) ||
        !parse_u64(parts[2], &max_rounds) || max_rounds == 0)
      return std::nullopt;
    out.plan.max_delay_rounds = static_cast<std::uint32_t>(max_rounds);
    out.canonical = "delay:" + render_double(out.plan.delay_probability) + ":";
    append_json_number(out.canonical, max_rounds);
    return out;
  }
  if (kind == "partition") {
    double pivot = 0;
    std::uint64_t start = 0, rounds = 0;
    if (parts.size() != 4 || !parse_double(parts[1], &pivot) || pivot <= 0.0 ||
        pivot >= 1.0 || !parse_u64(parts[2], &start) ||
        !parse_u64(parts[3], &rounds) || rounds == 0)
      return std::nullopt;
    out.plan.partition_pivot = pivot;
    out.plan.partition_start = start;
    out.plan.partition_rounds = static_cast<std::uint32_t>(rounds);
    out.canonical = "partition:" + render_double(pivot) + ":";
    append_json_number(out.canonical, start);
    out.canonical += ':';
    append_json_number(out.canonical, rounds);
    return out;
  }
  if (kind == "replay") {
    std::uint64_t history = 0;
    if (parts.size() != 3 || !prob(parts[1], &out.plan.replay_probability) ||
        !parse_u64(parts[2], &history) || history == 0)
      return std::nullopt;
    out.plan.replay_history = history;
    out.canonical = "replay:" + render_double(out.plan.replay_probability) + ":";
    append_json_number(out.canonical, history);
    return out;
  }
  if (kind == "oldest-last") {
    std::uint64_t hold = 0;
    if (parts.size() != 2 || !parse_u64(parts[1], &hold) || hold == 0)
      return std::nullopt;
    out.oldest_last_hold = static_cast<std::uint32_t>(hold);
    out.canonical = "oldest-last:";
    append_json_number(out.canonical, hold);
    return out;
  }
  return std::nullopt;
}

std::optional<AblationSpec> parse_ablation_spec(const std::string& spec) {
  const auto parts = split(spec, ':');
  const std::string_view kind = parts[0];
  AblationSpec out;
  if (kind == "full" || kind == "no-shortcut" || kind == "no-move-forget" ||
      kind == "no-probing" || kind == "detector") {
    if (parts.size() != 1) return std::nullopt;
    out.canonical = std::string(kind);
    if (kind == "no-shortcut") out.config.lrl_shortcut = false;
    if (kind == "no-move-forget") out.config.move_and_forget_enabled = false;
    if (kind == "no-probing") out.config.probing_enabled = false;
    if (kind == "detector") out.config.detector.enabled = true;
    return out;
  }
  if (kind == "eps") {
    double epsilon = 0;
    if (parts.size() != 2 || !parse_double(parts[1], &epsilon) || epsilon <= 0)
      return std::nullopt;
    out.config.epsilon = epsilon;
    out.canonical = "eps:" + render_double(epsilon);
    return out;
  }
  if (kind == "multilink" || kind == "probe-interval") {
    std::uint64_t count = 0;
    if (parts.size() != 2 || !parse_u64(parts[1], &count) || count == 0 ||
        (kind == "multilink" && count > core::kMaxLrlCount))
      return std::nullopt;
    if (kind == "multilink")
      out.config.lrl_count = static_cast<std::uint32_t>(count);
    else
      out.config.probe_interval = static_cast<std::uint32_t>(count);
    out.canonical = std::string(kind) + ":";
    append_json_number(out.canonical, count);
    return out;
  }
  return std::nullopt;
}

// --- config ----------------------------------------------------------------

std::string SweepParseError::to_string() const {
  std::string out = "config";
  if (line > 0) {
    out += " line ";
    append_json_number(out, line);
  }
  out += ": " + message;
  return out;
}

namespace {

bool fail(SweepParseError* error, std::size_t line, std::string message) {
  if (error != nullptr) *error = {line, std::move(message)};
  return false;
}

/// Parses one `experiments` entry `name[:k=v]...` into canonical form.
bool parse_experiment_ref(std::string_view entry, ExperimentRef* out,
                          std::string* message) {
  const auto parts = split(entry, ':');
  const ExperimentDescriptor* descriptor = find_experiment(parts[0]);
  if (descriptor == nullptr) {
    *message = "unknown experiment '" + std::string(parts[0]) + "'";
    return false;
  }
  out->name = std::string(parts[0]);
  std::vector<std::pair<std::string, std::string>> params;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::size_t eq = parts[i].find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == parts[i].size()) {
      *message = "malformed experiment param '" + std::string(parts[i]) +
                 "' (want key=value)";
      return false;
    }
    const std::string_view key = parts[i].substr(0, eq);
    bool allowed = false;
    for (const std::string_view candidate : descriptor->allowed_params)
      allowed |= candidate == key;
    if (!allowed) {
      *message = "experiment '" + out->name + "' takes no param '" +
                 std::string(key) + "'";
      return false;
    }
    for (const auto& [existing, value] : params) {
      if (existing == key) {
        *message = "duplicate experiment param '" + std::string(key) + "'";
        return false;
      }
    }
    params.emplace_back(std::string(key), std::string(parts[i].substr(eq + 1)));
  }
  std::sort(params.begin(), params.end());
  out->params.clear();
  for (const auto& [key, value] : params) {
    if (!out->params.empty()) out->params += ';';
    out->params += key + "=" + value;
  }
  return true;
}

}  // namespace

std::optional<SweepConfig> parse_sweep_config(std::string_view text,
                                              SweepParseError* error) {
  SweepConfig config;
  config.shapes = {topology::InitialShape::kRandomChain};
  config.schedulers = {sim::SchedulerKind::kSynchronous};
  config.faults = {FaultSpec{}};
  config.ablations = {AblationSpec{}};
  config.sizes = {64};
  config.seeds = {20120521};

  std::set<std::string, std::less<>> seen;
  std::size_t line_number = 0;
  for (std::string_view line : split(text, '\n')) {
    ++line_number;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(error, line_number, "expected 'key = value'");
      return std::nullopt;
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      fail(error, line_number, "empty key");
      return std::nullopt;
    }
    if (!seen.insert(std::string(key)).second) {
      fail(error, line_number, "duplicate key '" + std::string(key) + "'");
      return std::nullopt;
    }
    if (value.empty()) {
      fail(error, line_number, "empty value for '" + std::string(key) + "'");
      return std::nullopt;
    }

    std::vector<std::string_view> items;
    for (const std::string_view item : split(value, ',')) {
      const std::string_view trimmed = trim(item);
      if (trimmed.empty()) {
        fail(error, line_number, "empty list entry in '" + std::string(key) + "'");
        return std::nullopt;
      }
      items.push_back(trimmed);
    }

    auto scalar_u64 = [&](std::uint64_t* out) {
      if (items.size() != 1 || !parse_u64(items[0], out)) {
        fail(error, line_number,
             "'" + std::string(key) + "' wants one nonnegative integer, got '" +
                 std::string(value) + "'");
        return false;
      }
      return true;
    };

    if (key == "name") {
      if (items.size() != 1 ||
          items[0].find_first_of(" \t/\\") != std::string_view::npos) {
        fail(error, line_number, "'name' wants one path-safe token");
        return std::nullopt;
      }
      config.name = std::string(items[0]);
    } else if (key == "experiments") {
      config.experiments.clear();
      for (const std::string_view item : items) {
        ExperimentRef ref;
        std::string message;
        if (!parse_experiment_ref(item, &ref, &message)) {
          fail(error, line_number, std::move(message));
          return std::nullopt;
        }
        config.experiments.push_back(std::move(ref));
      }
    } else if (key == "n") {
      config.sizes.clear();
      for (const std::string_view item : items) {
        std::uint64_t n = 0;
        if (!parse_u64(item, &n) || n < 4) {
          fail(error, line_number,
               "bad network size '" + std::string(item) + "' (want >= 4)");
          return std::nullopt;
        }
        config.sizes.push_back(static_cast<std::size_t>(n));
      }
    } else if (key == "shapes") {
      config.shapes.clear();
      for (const std::string_view item : items) {
        const auto shape = topology::shape_from_string(item);
        if (!shape) {
          fail(error, line_number, "unknown shape '" + std::string(item) + "'");
          return std::nullopt;
        }
        config.shapes.push_back(*shape);
      }
    } else if (key == "schedulers") {
      config.schedulers.clear();
      for (const std::string_view item : items) {
        const auto kind = sim::scheduler_from_string(item);
        if (!kind) {
          fail(error, line_number,
               "unknown scheduler '" + std::string(item) + "'");
          return std::nullopt;
        }
        config.schedulers.push_back(*kind);
      }
    } else if (key == "faults") {
      config.faults.clear();
      for (const std::string_view item : items) {
        auto spec = parse_fault_spec(std::string(item));
        if (!spec) {
          fail(error, line_number,
               "bad fault spec '" + std::string(item) +
                   "' (want none | dup:P | delay:P:MAX | "
                   "partition:PIVOT:START:ROUNDS | replay:P:HIST | "
                   "oldest-last:HOLD)");
          return std::nullopt;
        }
        config.faults.push_back(std::move(*spec));
      }
    } else if (key == "ablations") {
      config.ablations.clear();
      for (const std::string_view item : items) {
        auto spec = parse_ablation_spec(std::string(item));
        if (!spec) {
          fail(error, line_number,
               "unknown ablation '" + std::string(item) + "'");
          return std::nullopt;
        }
        config.ablations.push_back(std::move(*spec));
      }
    } else if (key == "seeds") {
      config.seeds.clear();
      for (const std::string_view item : items) {
        std::uint64_t seed = 0;
        if (!parse_u64(item, &seed)) {
          fail(error, line_number, "bad seed '" + std::string(item) + "'");
          return std::nullopt;
        }
        config.seeds.push_back(seed);
      }
    } else if (key == "trials") {
      std::uint64_t trials = 0;
      if (!scalar_u64(&trials)) return std::nullopt;
      if (trials == 0) {
        fail(error, line_number, "'trials' must be >= 1");
        return std::nullopt;
      }
      config.trials = static_cast<std::size_t>(trials);
    } else if (key == "jobs") {
      std::uint64_t jobs = 0;
      if (!scalar_u64(&jobs)) return std::nullopt;
      if (jobs == 0) {
        fail(error, line_number, "'jobs' must be >= 1");
        return std::nullopt;
      }
      config.jobs = static_cast<std::size_t>(jobs);
    } else if (key == "max_rounds") {
      if (!scalar_u64(&config.max_rounds)) return std::nullopt;
    } else {
      fail(error, line_number, "unknown key '" + std::string(key) + "'");
      return std::nullopt;
    }
  }

  if (config.name.empty()) {
    fail(error, 0, "missing required key 'name'");
    return std::nullopt;
  }
  if (config.experiments.empty()) {
    fail(error, 0, "missing required key 'experiments'");
    return std::nullopt;
  }
  return config;
}

std::optional<SweepConfig> load_sweep_config(const std::filesystem::path& path,
                                             SweepParseError* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, 0, "cannot read " + path.string());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_sweep_config(buffer.str(), error);
}

// --- cells -----------------------------------------------------------------

std::string cell_key(const SweepCell& cell) {
  std::string key = "experiment=" + cell.experiment;
  key += "|params=" + cell.params;
  key += "|n=";
  append_json_number(key, cell.n);
  key += "|shape=";
  key += topology::to_string(cell.shape);
  key += "|scheduler=";
  key += sim::to_string(cell.scheduler);
  key += "|fault=" + cell.fault;
  key += "|ablation=" + cell.ablation;
  key += "|seed=";
  append_json_number(key, cell.seed);
  key += "|trials=";
  append_json_number(key, cell.trials);
  key += "|max_rounds=";
  append_json_number(key, cell.max_rounds);
  return key;
}

std::string cell_hash(const SweepCell& cell) {
  return hex16(util::Fnv1a().add_bytes(cell_key(cell)).value());
}

std::vector<SweepCell> expand_cells(const SweepConfig& config) {
  std::vector<SweepCell> cells;
  std::set<std::string> seen;
  for (const ExperimentRef& ref : config.experiments) {
    const ExperimentDescriptor* descriptor = find_experiment(ref.name);
    if (descriptor == nullptr) continue;  // load-time validation rejects these
    for (const std::size_t n : config.sizes) {
      for (const topology::InitialShape shape : config.shapes) {
        for (const sim::SchedulerKind scheduler : config.schedulers) {
          for (const FaultSpec& fault : config.faults) {
            for (const AblationSpec& ablation : config.ablations) {
              for (const std::uint64_t seed : config.seeds) {
                SweepCell cell;
                cell.experiment = ref.name;
                cell.params = ref.params;
                cell.n = n;
                cell.seed = seed;
                cell.trials = config.trials;
                cell.max_rounds = config.max_rounds;
                if (descriptor->uses_shape) cell.shape = shape;
                if (descriptor->uses_scheduler) cell.scheduler = scheduler;
                if (descriptor->uses_fault) {
                  cell.fault = fault.canonical;
                  // The oldest-last "fault" is a scheduler in disguise: pin
                  // the axis so the pair hashes (and reports) coherently.
                  if (fault.oldest_last())
                    cell.scheduler = sim::SchedulerKind::kAdversarialOldestLast;
                }
                if (descriptor->uses_ablation) cell.ablation = ablation.canonical;
                if (seen.insert(cell_key(cell)).second)
                  cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

// --- provenance ------------------------------------------------------------

std::string read_git_sha(const std::filesystem::path& start) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dir = fs::absolute(start, ec);
  if (ec) return "unknown";
  for (; !dir.empty(); dir = dir.parent_path()) {
    const fs::path git = dir / ".git";
    if (!fs::exists(git, ec)) {
      if (dir == dir.parent_path()) break;
      continue;
    }
    std::ifstream head(git / "HEAD");
    if (!head) return "unknown";
    std::string line;
    std::getline(head, line);
    if (line.rfind("ref: ", 0) != 0) return std::string(trim(line));
    const std::string ref = std::string(trim(std::string_view(line).substr(5)));
    if (std::ifstream ref_file(git / ref); ref_file) {
      std::getline(ref_file, line);
      return std::string(trim(line));
    }
    // Packed ref: lines are "<sha> <refname>".
    std::ifstream packed(git / "packed-refs");
    while (packed && std::getline(packed, line)) {
      const std::string_view entry = trim(line);
      if (entry.size() > 41 && entry.substr(41) == ref && entry[40] == ' ')
        return std::string(entry.substr(0, 40));
    }
    return "unknown";
  }
  return "unknown";
}

Provenance collect_provenance(const SweepConfig& config,
                              const std::filesystem::path& start) {
  Provenance out;
  out.git_sha = read_git_sha(start);
  util::Fnv1a hash;
  for (const SweepCell& cell : expand_cells(config))
    hash.add_bytes(cell_key(cell)).add_bytes("\n");
  out.config_hash = hex16(hash.value());
  out.machine = "cpus=";
  append_json_number(out.machine, std::thread::hardware_concurrency());
#if defined(__VERSION__)
  out.machine += ", cc=";
  out.machine += __VERSION__;
#endif
  return out;
}

// --- meta.json -------------------------------------------------------------

namespace {

void append_provenance(std::string& out, const Provenance& provenance,
                       std::string_view indent) {
  out += "{\n";
  out += indent;
  out += "  \"git_sha\": ";
  append_json_string(out, provenance.git_sha);
  out += ",\n";
  out += indent;
  out += "  \"config_hash\": ";
  append_json_string(out, provenance.config_hash);
  out += ",\n";
  out += indent;
  out += "  \"machine\": ";
  append_json_string(out, provenance.machine);
  out += "\n";
  out += indent;
  out += "}";
}

std::optional<Provenance> parse_provenance(const util::JsonValue& value) {
  const auto sha = value["git_sha"].string();
  const auto config = value["config_hash"].string();
  const auto machine = value["machine"].string();
  if (!sha || !config || !machine) return std::nullopt;
  return Provenance{std::string(*sha), std::string(*config),
                    std::string(*machine)};
}

}  // namespace

std::string to_json(const CellMeta& meta) {
  std::string out = "{\n  \"cell\": {\n";
  out += "    \"experiment\": ";
  append_json_string(out, meta.cell.experiment);
  out += ",\n    \"params\": ";
  append_json_string(out, meta.cell.params);
  out += ",\n    \"n\": ";
  append_json_number(out, meta.cell.n);
  out += ",\n    \"shape\": ";
  append_json_string(out, topology::to_string(meta.cell.shape));
  out += ",\n    \"scheduler\": ";
  append_json_string(out, sim::to_string(meta.cell.scheduler));
  out += ",\n    \"fault\": ";
  append_json_string(out, meta.cell.fault);
  out += ",\n    \"ablation\": ";
  append_json_string(out, meta.cell.ablation);
  out += ",\n    \"seed\": ";
  append_json_number(out, meta.cell.seed);
  out += ",\n    \"trials\": ";
  append_json_number(out, meta.cell.trials);
  out += ",\n    \"max_rounds\": ";
  append_json_number(out, meta.cell.max_rounds);
  out += "\n  },\n  \"hash\": ";
  append_json_string(out, meta.hash);
  out += ",\n  \"provenance\": ";
  append_provenance(out, meta.provenance, "  ");
  out += ",\n  \"status\": ";
  append_json_string(out, meta.status);
  out += ",\n  \"wall_seconds\": ";
  append_json_number(out, meta.wall_seconds);
  out += ",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : meta.metrics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": ";
    append_json_number(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"schema\": 1\n}\n";
  return out;
}

std::optional<CellMeta> parse_cell_meta(const std::string& text) {
  const auto doc = util::parse_json(text);
  if (!doc) return std::nullopt;
  const util::JsonValue& cell = (*doc)["cell"];
  const auto experiment = cell["experiment"].string();
  const auto params = cell["params"].string();
  const auto n = cell["n"].number<std::size_t>();
  const auto shape = cell["shape"].string();
  const auto scheduler = cell["scheduler"].string();
  const auto fault = cell["fault"].string();
  const auto ablation = cell["ablation"].string();
  const auto seed = cell["seed"].number<std::uint64_t>();
  const auto trials = cell["trials"].number<std::size_t>();
  const auto max_rounds = cell["max_rounds"].number<std::uint64_t>();
  const auto hash = (*doc)["hash"].string();
  const auto provenance = parse_provenance((*doc)["provenance"]);
  const auto status = (*doc)["status"].string();
  const auto wall = (*doc)["wall_seconds"].number<double>();
  const util::JsonValue& metrics = (*doc)["metrics"];
  if (!experiment || !params || !n || !shape || !scheduler || !fault ||
      !ablation || !seed || !trials || !max_rounds || !hash || !provenance ||
      !status || !wall || metrics.kind() != util::JsonValue::Kind::kObject)
    return std::nullopt;
  const auto shape_kind = topology::shape_from_string(*shape);
  const auto scheduler_kind = sim::scheduler_from_string(*scheduler);
  if (!shape_kind || !scheduler_kind) return std::nullopt;

  CellMeta meta;
  meta.cell.experiment = *experiment;
  meta.cell.params = *params;
  meta.cell.n = *n;
  meta.cell.shape = *shape_kind;
  meta.cell.scheduler = *scheduler_kind;
  meta.cell.fault = *fault;
  meta.cell.ablation = *ablation;
  meta.cell.seed = *seed;
  meta.cell.trials = *trials;
  meta.cell.max_rounds = *max_rounds;
  meta.hash = *hash;
  meta.provenance = *provenance;
  meta.status = *status;
  meta.wall_seconds = *wall;
  for (std::size_t i = 0; i < metrics.keys().size(); ++i) {
    const auto value = metrics.items()[i].number<double>();
    if (!value) return std::nullopt;
    meta.metrics.emplace_back(metrics.keys()[i], *value);
  }
  return meta;
}

std::string to_json(const SweepMeta& meta) {
  std::string out = "{\n  \"name\": ";
  append_json_string(out, meta.name);
  out += ",\n  \"seeds\": [";
  for (std::size_t i = 0; i < meta.seeds.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_number(out, meta.seeds[i]);
  }
  out += "],\n  \"planned\": ";
  append_json_number(out, meta.planned);
  out += ",\n  \"provenance\": ";
  append_provenance(out, meta.provenance, "  ");
  out += ",\n  \"schema\": 1\n}\n";
  return out;
}

std::optional<SweepMeta> parse_sweep_meta(const std::string& text) {
  const auto doc = util::parse_json(text);
  if (!doc) return std::nullopt;
  const auto name = (*doc)["name"].string();
  const auto planned = (*doc)["planned"].number<std::size_t>();
  const auto provenance = parse_provenance((*doc)["provenance"]);
  const util::JsonValue& seeds = (*doc)["seeds"];
  if (!name || !planned || !provenance ||
      seeds.kind() != util::JsonValue::Kind::kArray)
    return std::nullopt;
  SweepMeta meta;
  meta.name = *name;
  meta.planned = *planned;
  meta.provenance = *provenance;
  for (const util::JsonValue& item : seeds.items()) {
    const auto seed = item.number<std::uint64_t>();
    if (!seed) return std::nullopt;
    meta.seeds.push_back(*seed);
  }
  return meta;
}

std::optional<std::string> annotate_provenance(const std::string& text,
                                               const Provenance& provenance) {
  const std::size_t open = text.find('{');
  if (open == std::string::npos) return std::nullopt;
  std::string block = "\"provenance\": ";
  append_provenance(block, provenance, "  ");
  const std::size_t key = text.find("\"provenance\"");
  if (key == std::string::npos) {
    // Insert as the first member, preserving the rest of the file verbatim.
    return text.substr(0, open + 1) + "\n  " + block + "," +
           text.substr(open + 1);
  }
  const std::size_t body_open = text.find('{', key);
  if (body_open == std::string::npos) return std::nullopt;
  std::size_t depth = 1;
  std::size_t body_close = body_open;
  for (std::size_t i = body_open + 1; i < text.size() && depth > 0; ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}') --depth;
    body_close = i;
  }
  if (depth != 0) return std::nullopt;
  return text.substr(0, key) + block + text.substr(body_close + 1);
}

// --- running ---------------------------------------------------------------

namespace {

/// Writes `content` to `path` via a sibling temp file + rename, so a cell's
/// meta.json is either absent or complete — a killed sweep can always be
/// resumed from what is on disk.
bool write_file_atomic(const std::filesystem::path& path,
                       const std::string& content) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << content;
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

std::optional<CellMeta> read_cell_meta(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_cell_meta(buffer.str());
}

}  // namespace

SweepSummary run_sweep(const SweepConfig& config,
                       const SweepRunOptions& options) {
  namespace fs = std::filesystem;
  SweepSummary summary;
  const std::vector<SweepCell> cells = expand_cells(config);
  summary.planned = cells.size();
  summary.exp_dir = options.out_root / config.name;

  const Provenance provenance = collect_provenance(config);
  std::mutex log_mutex;
  auto log_line = [&](const std::string& line) {
    if (options.log == nullptr) return;
    const std::lock_guard<std::mutex> lock(log_mutex);
    *options.log << line << '\n';
  };

  if (options.dry_run) {
    for (const SweepCell& cell : cells)
      log_line("plan " + cell_hash(cell) + "  " + cell_key(cell));
    log_line("dry run: " + std::to_string(cells.size()) + " cells, nothing executed");
    return summary;
  }

  fs::create_directories(summary.exp_dir);
  SweepMeta sweep_meta;
  sweep_meta.name = config.name;
  sweep_meta.seeds = config.seeds;
  sweep_meta.planned = cells.size();
  sweep_meta.provenance = provenance;
  write_file_atomic(summary.exp_dir / "sweep.json", to_json(sweep_meta));

  // Resume pass: a cell is done iff its meta.json exists, parses, matches
  // the hash it sits under, and recorded "ok".
  std::vector<const SweepCell*> pending;
  for (const SweepCell& cell : cells) {
    const std::string hash = cell_hash(cell);
    if (options.resume) {
      const auto existing = read_cell_meta(summary.exp_dir / hash / "meta.json");
      if (existing && existing->ok() && existing->hash == hash) {
        ++summary.skipped;
        continue;
      }
    }
    pending.push_back(&cell);
  }
  log_line("sweep " + config.name + ": " + std::to_string(cells.size()) +
           " cells planned, " + std::to_string(summary.skipped) +
           " already done");

  // The cell loop gets its own threads: cells internally fan trials across
  // util::parallel_for's shared pool, and a pool worker blocking on another
  // pool task would deadlock — independent outer threads cannot.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> failed{0};
  auto worker = [&] {
    while (true) {
      if (options.fail_fast && failed.load() > 0) return;
      const std::size_t index = next.fetch_add(1);
      if (index >= pending.size()) return;
      const SweepCell& cell = *pending[index];
      const std::string hash = cell_hash(cell);
      const fs::path cell_dir = summary.exp_dir / hash;
      fs::create_directories(cell_dir);

      const ExperimentDescriptor* descriptor = find_experiment(cell.experiment);
      const auto start = std::chrono::steady_clock::now();
      obs::Registry registry;
      CellResult result;
      if (descriptor == nullptr) {
        result.error = "unknown experiment";
      } else {
        result = descriptor->run(cell, &registry);
      }
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();

      if (registry.size() > 0) {
        std::ofstream jsonl(cell_dir / "metrics.jsonl", std::ios::trunc);
        jsonl << obs::to_jsonl(registry, 0) << '\n';
      }

      CellMeta meta;
      meta.cell = cell;
      meta.hash = hash;
      meta.provenance = provenance;
      meta.status = result.error.empty() ? "ok" : "failed: " + result.error;
      meta.wall_seconds = wall;
      meta.metrics = std::move(result.metrics);
      write_file_atomic(cell_dir / "meta.json", to_json(meta));

      executed.fetch_add(1);
      if (!result.error.empty()) failed.fetch_add(1);
      char wall_text[32];
      std::snprintf(wall_text, sizeof wall_text, "%.2fs", wall);
      log_line((result.error.empty() ? "done " : "FAIL ") + hash + "  " +
               cell.experiment + " n=" + std::to_string(cell.n) + " seed=" +
               std::to_string(cell.seed) + "  " + wall_text +
               (result.error.empty() ? "" : "  (" + result.error + ")"));
    }
  };

  std::size_t jobs = options.jobs > 0 ? options.jobs : config.jobs;
  jobs = std::max<std::size_t>(1, std::min(jobs, pending.size()));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
  }

  summary.executed = executed.load();
  summary.failed = failed.load();
  log_line("sweep " + config.name + ": executed " +
           std::to_string(summary.executed) + ", skipped " +
           std::to_string(summary.skipped) + ", failed " +
           std::to_string(summary.failed));
  return summary;
}

}  // namespace sssw::analysis
