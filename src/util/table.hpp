// table.hpp — aligned console tables and the one number formatter.
//
// sssw_sim prints its node listing as a table, and the sweep report and the
// CLI help render their values with format_double, so the number formatting
// lives in one place.
#pragma once

#include <cstdint>
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

  /// Renders with padded columns, a header rule, and `| |` separators.
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

/// Formats a double with fixed precision (no locale surprises).
std::string format_double(double value, int precision);

}  // namespace sssw::util
