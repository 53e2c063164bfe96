#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.hpp"

namespace sssw::util {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  SSSW_CHECK_MSG(!headers_.empty(), "Table requires at least one column");
}

Table& Table::row() {
  cells_.emplace_back();
  cells_.back().reserve(headers_.size());
  return *this;
}

Table& Table::add(std::string cell) {
  SSSW_CHECK_MSG(!cells_.empty(), "call row() before add()");
  SSSW_CHECK_MSG(cells_.back().size() < headers_.size(), "row has too many cells");
  cells_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double value, int precision) {
  return add(format_double(value, precision));
}

Table& Table::add(std::int64_t value) { return add(std::to_string(value)); }
Table& Table::add(std::uint64_t value) { return add(std::to_string(value)); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : cells_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  out << '|';
  for (const std::size_t w : widths) out << std::string(w + 2, '-') << '|';
  out << '\n';
  for (const auto& row : cells_) emit_row(row);
  return out.str();
}


}  // namespace sssw::util
