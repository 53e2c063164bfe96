// Tests for util/table: alignment, cell types.
#include "util/table.hpp"

#include <gtest/gtest.h>


namespace sssw::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.row().add("alpha").add(std::int64_t{1});
  t.row().add("b").add(std::int64_t{22});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(Table, HeaderRulePresent) {
  Table t({"a"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, DoubleFormatting) {
  Table t({"x"});
  t.row().add(3.14159, 3);
  EXPECT_NE(t.to_string().find("3.142"), std::string::npos);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t({"a", "b"});
  t.row().add("only");
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| only |"), std::string::npos);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(1.25, 1), "1.2");  // round-to-even
  EXPECT_EQ(format_double(-0.5, 2), "-0.50");
}

}  // namespace
}  // namespace sssw::util
