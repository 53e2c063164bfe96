#include "analysis/report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/experiments.hpp"
#include "util/table.hpp"

namespace sssw::analysis {

namespace {

/// Deterministic short rendering for table cells: integers stay integral,
/// everything else gets 4 fixed decimals via util::format_double.
std::string render_value(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
    return buffer;
  }
  return util::format_double(value, 4);
}

std::size_t catalog_index(const std::string& experiment) {
  const auto experiments = all_experiments();
  for (std::size_t i = 0; i < experiments.size(); ++i)
    if (experiments[i].name == experiment) return i;
  return experiments.size();
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// cell_key() order, except that every numeral compares by value: n,
/// params and ablations list as 64 < 128 < 1024, loss = 0 < 0.05 < 0.1 and
/// probe-interval:2 < 16.  Keys equal under that rule fall back to text.
bool cell_order_less(const SweepCell& left, const SweepCell& right) {
  const std::string a = cell_key(left), b = cell_key(right);
  const char *p = a.data(), *const p_end = p + a.size();
  const char *q = b.data(), *const q_end = q + b.size();
  while (p < p_end && q < q_end) {
    if (is_digit(*p) && is_digit(*q)) {
      double x = 0, y = 0;
      p = std::from_chars(p, p_end, x).ptr;
      q = std::from_chars(q, q_end, y).ptr;
      if (x != y) return x < y;
    } else if (*p != *q) {
      return static_cast<unsigned char>(*p) < static_cast<unsigned char>(*q);
    } else {
      ++p;
      ++q;
    }
  }
  if (p < p_end || q < q_end) return p == p_end;
  return a < b;
}

/// Sorted union of metric names over a set of cells.
std::vector<std::string> metric_columns(const std::vector<const CellMeta*>& cells) {
  std::set<std::string> names;
  for (const CellMeta* cell : cells)
    for (const auto& [name, value] : cell->metrics) names.insert(name);
  return {names.begin(), names.end()};
}

std::optional<double> metric_value(const CellMeta& cell,
                                   const std::string& name) {
  for (const auto& [metric, value] : cell.metrics)
    if (metric == name) return value;
  return std::nullopt;
}

struct AxisColumn {
  const char* header;
  std::string (*get)(const CellMeta&);
};

const AxisColumn kAxisColumns[] = {
    {"params", [](const CellMeta& m) { return m.cell.params; }},
    {"n",
     [](const CellMeta& m) { return std::to_string(m.cell.n); }},
    {"shape",
     [](const CellMeta& m) {
       return std::string(topology::to_string(m.cell.shape));
     }},
    {"scheduler",
     [](const CellMeta& m) {
       return std::string(sim::to_string(m.cell.scheduler));
     }},
    {"fault", [](const CellMeta& m) { return m.cell.fault; }},
    {"ablation", [](const CellMeta& m) { return m.cell.ablation; }},
    {"seed",
     [](const CellMeta& m) { return std::to_string(m.cell.seed); }},
};

/// Axis columns that actually vary across `cells` (a constant column says
/// nothing; per-experiment tables stay narrow).
std::vector<const AxisColumn*> varying_axes(
    const std::vector<const CellMeta*>& cells) {
  std::vector<const AxisColumn*> out;
  for (const AxisColumn& column : kAxisColumns) {
    std::set<std::string> values;
    for (const CellMeta* cell : cells) values.insert(column.get(*cell));
    if (values.size() > 1) out.push_back(&column);
  }
  return out;
}

std::vector<const CellMeta*> cells_of(const SweepRun& run,
                                      const std::string& experiment) {
  std::vector<const CellMeta*> out;
  for (const CellMeta& cell : run.cells)
    if (cell.cell.experiment == experiment) out.push_back(&cell);
  return out;
}

std::vector<std::string> experiment_order(const SweepRun& run) {
  std::vector<std::string> out;
  for (const CellMeta& cell : run.cells)
    if (std::find(out.begin(), out.end(), cell.cell.experiment) == out.end())
      out.push_back(cell.cell.experiment);
  return out;
}

std::string seeds_text(const SweepMeta& meta) {
  std::string out;
  for (std::size_t i = 0; i < meta.seeds.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(meta.seeds[i]);
  }
  return out;
}

/// The regeneration caption: the exact two commands plus the seed set and
/// matrix hash, so any table in the docs names its own reproduction recipe.
std::string caption(const SweepRun& run) {
  return "Generated by `tools/sssw_sweep --config bench/experiments/" +
         run.meta.name + ".cfg --jobs 4` + `tools/sssw_report --runs results/runs/" +
         run.meta.name + "` (seeds " + seeds_text(run.meta) + ", matrix " +
         run.meta.provenance.config_hash + ").";
}

void append_html_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '<')
      out += "&lt;";
    else if (c == '>')
      out += "&gt;";
    else if (c == '&')
      out += "&amp;";
    else
      out += c;
  }
}

}  // namespace

std::optional<SweepRun> load_sweep_run(const std::filesystem::path& exp_dir) {
  namespace fs = std::filesystem;
  std::ifstream meta_file(exp_dir / "sweep.json");
  if (!meta_file) return std::nullopt;
  std::ostringstream meta_buffer;
  meta_buffer << meta_file.rdbuf();
  const auto meta = parse_sweep_meta(meta_buffer.str());
  if (!meta) return std::nullopt;

  SweepRun run;
  run.meta = *meta;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(exp_dir, ec)) {
    if (!entry.is_directory()) continue;
    std::ifstream cell_file(entry.path() / "meta.json");
    if (!cell_file) continue;
    std::ostringstream cell_buffer;
    cell_buffer << cell_file.rdbuf();
    if (auto cell = parse_cell_meta(cell_buffer.str()))
      run.cells.push_back(std::move(*cell));
  }
  std::sort(run.cells.begin(), run.cells.end(),
            [](const CellMeta& a, const CellMeta& b) {
              const std::size_t ia = catalog_index(a.cell.experiment);
              const std::size_t ib = catalog_index(b.cell.experiment);
              if (ia != ib) return ia < ib;
              return cell_order_less(a.cell, b.cell);
            });
  return run;
}

std::string render_runs_csv(const SweepRun& run) {
  std::vector<const CellMeta*> cells;
  cells.reserve(run.cells.size());
  for (const CellMeta& cell : run.cells) cells.push_back(&cell);
  const std::vector<std::string> metrics = metric_columns(cells);

  std::string out =
      "experiment,params,n,shape,scheduler,fault,ablation,seed,trials,"
      "max_rounds,status";
  for (const std::string& name : metrics) out += "," + name;
  out += '\n';
  for (const CellMeta* cell : cells) {
    out += cell->cell.experiment;
    out += ',' + cell->cell.params;
    out += ',' + std::to_string(cell->cell.n);
    out += ',';
    out += topology::to_string(cell->cell.shape);
    out += ',';
    out += sim::to_string(cell->cell.scheduler);
    out += ',' + cell->cell.fault;
    out += ',' + cell->cell.ablation;
    out += ',' + std::to_string(cell->cell.seed);
    out += ',' + std::to_string(cell->cell.trials);
    out += ',' + std::to_string(cell->cell.max_rounds);
    out += ',' + cell->status;
    for (const std::string& name : metrics) {
      out += ',';
      if (const auto value = metric_value(*cell, name))
        out += render_value(*value);
    }
    out += '\n';
  }
  return out;
}

std::string render_markdown_table(const SweepRun& run,
                                  const std::string& experiment) {
  const std::vector<const CellMeta*> cells = cells_of(run, experiment);
  if (cells.empty()) return "";
  const std::vector<const AxisColumn*> axes = varying_axes(cells);
  const std::vector<std::string> metrics = metric_columns(cells);

  std::string out = "| ";
  for (const AxisColumn* axis : axes) out += std::string(axis->header) + " | ";
  for (const std::string& name : metrics) out += name + " | ";
  if (axes.empty() && metrics.empty()) return "";
  out += "\n|";
  for (std::size_t i = 0; i < axes.size() + metrics.size(); ++i) out += "---|";
  out += '\n';
  for (const CellMeta* cell : cells) {
    out += "| ";
    for (const AxisColumn* axis : axes) out += axis->get(*cell) + " | ";
    for (const std::string& name : metrics) {
      const auto value = metric_value(*cell, name);
      out += (value ? render_value(*value) : std::string("—")) + " | ";
    }
    out += '\n';
  }
  out += '\n' + caption(run) + '\n';
  return out;
}

std::string render_report_md(const SweepRun& run) {
  std::string out = "# Sweep report — `" + run.meta.name + "`\n\n";
  out += "Regenerable experiment matrix: " +
         std::to_string(run.meta.planned) + " cells, seeds " +
         seeds_text(run.meta) + ", matrix hash `" +
         run.meta.provenance.config_hash +
         "`.\nEvery table below is a build artifact of `tools/sssw_sweep` + "
         "`tools/sssw_report`; do not edit by hand.\n";
  for (const std::string& experiment : experiment_order(run)) {
    const ExperimentDescriptor* descriptor = find_experiment(experiment);
    out += "\n## " + experiment + "\n\n";
    if (descriptor != nullptr)
      out += std::string(descriptor->claim) + " (see doc/BENCHMARKS.md).\n\n";
    out += render_markdown_table(run, experiment);
  }
  return out;
}

std::string render_index_html(const SweepRun& run) {
  std::string out =
      "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
      "<title>sssw sweep — " +
      run.meta.name +
      "</title>\n<style>\n"
      "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:72rem;"
      "padding:0 1rem;color:#1a1a2e}\n"
      "table{border-collapse:collapse;margin:0.75rem 0}\n"
      "th,td{border:1px solid #c9c9d9;padding:0.25rem 0.6rem;text-align:right}\n"
      "th{background:#eceff4}\ntd:first-child,th:first-child{text-align:left}\n"
      "h2{margin-top:2rem}\n.claim{color:#555}\n.fail{background:#fdd}\n"
      "figure{margin:0.5rem 0}\nfigcaption{color:#555;font-size:12px}\n"
      "</style>\n</head>\n<body>\n";
  out += "<h1>sssw sweep — " + run.meta.name + "</h1>\n<p>" +
         std::to_string(run.meta.planned) + " cells planned, " +
         std::to_string(run.cells.size()) + " on disk; seeds " +
         seeds_text(run.meta) + "; matrix hash <code>" +
         run.meta.provenance.config_hash + "</code>.</p>\n";

  for (const std::string& experiment : experiment_order(run)) {
    const std::vector<const CellMeta*> cells = cells_of(run, experiment);
    const std::vector<const AxisColumn*> axes = varying_axes(cells);
    const std::vector<std::string> metrics = metric_columns(cells);
    out += "<h2>" + experiment + "</h2>\n";
    if (const ExperimentDescriptor* descriptor = find_experiment(experiment)) {
      out += "<p class=\"claim\">";
      append_html_escaped(out, std::string(descriptor->claim));
      out += "</p>\n";
    }

    // Bar chart of the first metric across cells: enough visual shape to
    // spot an outlier cell without any external plotting dependency.
    if (!metrics.empty() && !cells.empty()) {
      const std::string& lead = metrics.front();
      std::vector<double> values;
      double max_value = 0;
      for (const CellMeta* cell : cells) {
        const double value = metric_value(*cell, lead).value_or(0.0);
        values.push_back(value);
        max_value = std::max(max_value, value);
      }
      const int bar = 18, gap = 4, height = 120;
      const int width =
          static_cast<int>(values.size()) * (bar + gap) + gap;
      out += "<figure><svg width=\"" + std::to_string(width) + "\" height=\"" +
             std::to_string(height) +
             "\" role=\"img\" aria-label=\"" + lead + " per cell\">\n";
      for (std::size_t i = 0; i < values.size(); ++i) {
        const double fraction = max_value > 0 ? values[i] / max_value : 0.0;
        const int h = std::max(1, static_cast<int>(fraction * (height - 20)));
        out += "<rect x=\"" +
               std::to_string(gap + static_cast<int>(i) * (bar + gap)) +
               "\" y=\"" + std::to_string(height - h) + "\" width=\"" +
               std::to_string(bar) + "\" height=\"" + std::to_string(h) +
               "\" fill=\"#4c6ef5\"><title>" + cell_key(cells[i]->cell) +
               ": " + render_value(values[i]) + "</title></rect>\n";
      }
      out += "</svg><figcaption>" + lead +
             " per cell (hover a bar for its key)</figcaption></figure>\n";
    }

    out += "<table>\n<tr>";
    for (const AxisColumn* axis : axes)
      out += "<th>" + std::string(axis->header) + "</th>";
    out += "<th>status</th>";
    for (const std::string& name : metrics) out += "<th>" + name + "</th>";
    out += "</tr>\n";
    for (const CellMeta* cell : cells) {
      out += cell->ok() ? "<tr>" : "<tr class=\"fail\">";
      for (const AxisColumn* axis : axes) {
        out += "<td>";
        append_html_escaped(out, axis->get(*cell));
        out += "</td>";
      }
      out += "<td>";
      append_html_escaped(out, cell->status);
      out += "</td>";
      for (const std::string& name : metrics) {
        const auto value = metric_value(*cell, name);
        out += "<td>" + (value ? render_value(*value) : std::string("—")) +
               "</td>";
      }
      out += "</tr>\n";
    }
    out += "</table>\n";
  }
  out += "</body>\n</html>\n";
  return out;
}

bool patch_marked_block(std::string* document, const std::string& name,
                        const std::string& replacement) {
  const std::string open = "<!-- sssw:table " + name + " -->";
  const std::string close = "<!-- /sssw:table -->";
  const std::size_t open_at = document->find(open);
  if (open_at == std::string::npos) return false;
  const std::size_t body_at = open_at + open.size();
  const std::size_t close_at = document->find(close, body_at);
  if (close_at == std::string::npos) return false;
  document->replace(body_at, close_at - body_at, "\n" + replacement);
  return true;
}

}  // namespace sssw::analysis
