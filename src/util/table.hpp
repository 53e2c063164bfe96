// table.hpp — aligned console tables and CSV output for experiment results.
//
// The examples print their results as paper-style tables, and the sweep
// report renders its values with format_double, so the number formatting
// lives in one place.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace sssw::util {

class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_* calls fill it left to right.
  Table& row();

  Table& add(std::string cell);
  Table& add(const char* cell) { return add(std::string(cell)); }
  Table& add(double value, int precision = 2);
  Table& add(std::int64_t value);
  Table& add(std::uint64_t value);
  Table& add(int value) { return add(static_cast<std::int64_t>(value)); }
  Table& add(unsigned value) { return add(static_cast<std::uint64_t>(value)); }

  std::size_t rows() const noexcept { return cells_.size(); }
  std::size_t columns() const noexcept { return headers_.size(); }

  /// Renders with padded columns, a header rule, and `| |` separators.
  std::string to_string() const;

  /// Renders as RFC-4180-ish CSV (cells containing commas/quotes get quoted).
  std::string to_csv() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

/// Formats a double with fixed precision (no locale surprises).
std::string format_double(double value, int precision);

}  // namespace sssw::util
