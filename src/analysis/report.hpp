// report.hpp — aggregation of sweep cells into runs.csv, a static HTML
// report, and the Markdown tables embedded in the docs (tools/sssw_report).
//
// Everything rendered here is a pure function of the cell meta.json files:
// no timestamps, no wall-clock, no machine strings — so re-running the same
// matrix at the same seeds reproduces runs.csv, report/index.html, and the
// EXPERIMENTS.md tables byte-for-byte.  That is what lets the docs tables be
// CI-checked build artifacts instead of hand-edited snapshots.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sweep.hpp"

namespace sssw::analysis {

/// Everything the report stage needs from one sweep directory.
struct SweepRun {
  SweepMeta meta;
  std::vector<CellMeta> cells;  ///< catalog order, then cell_key order (n numeric)
};

/// Loads <exp_dir>/sweep.json plus every <hash>/meta.json under it.  Cells
/// are sorted by experiment catalog order, then by the canonical cell key's
/// fields in turn with n compared as a number, so the result (and every
/// artifact rendered from it) is independent of directory iteration order
/// and lists n = 64, 128, 1024 in that order.  nullopt if sweep.json is
/// missing or unparseable.
std::optional<SweepRun> load_sweep_run(const std::filesystem::path& exp_dir);

/// runs.csv: one row per cell; fixed axis columns, then the sorted union of
/// metric names across all cells (missing values render empty).
std::string render_runs_csv(const SweepRun& run);

/// Self-contained report page: per-experiment tables plus an inline SVG bar
/// chart of each experiment's leading metric.  No external assets.
std::string render_index_html(const SweepRun& run);

/// The Markdown table for one experiment's cells: axis columns that vary
/// across its cells, then its metrics, then the regeneration caption
/// (exact command + seeds + matrix hash).  Empty string when the run holds
/// no cells for `experiment`.
std::string render_markdown_table(const SweepRun& run,
                                  const std::string& experiment);

/// results/REPORT.md: header + every experiment's Markdown table.
std::string render_report_md(const SweepRun& run);

/// Replaces the lines between `<!-- sssw:table NAME -->` and
/// `<!-- /sssw:table -->` in `document` with `replacement` (markers stay).
/// False when the marker pair is absent or malformed.
bool patch_marked_block(std::string* document, const std::string& name,
                        const std::string& replacement);

}  // namespace sssw::analysis
