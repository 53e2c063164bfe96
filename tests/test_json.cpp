// Tests for util/json: every JSON file the repo commits parses, numbers
// convert exactly or not at all, malformed documents are rejected, and the
// writer helpers round-trip through the reader.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace sssw::util {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Json, EveryCommittedJsonFileParses) {
  const std::filesystem::path root(SSSW_SOURCE_DIR);
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".json" &&
        (name.starts_with("BENCH_") || name == "BENCHMARK.json"))
      files.push_back(entry.path());
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "tests" / "corpus"))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  ASSERT_GE(files.size(), 15u);  // 4 artifacts + 11 corpus cases
  for (const auto& path : files) {
    const auto doc = parse_json(slurp(path));
    ASSERT_TRUE(doc.has_value()) << path;
    EXPECT_EQ(doc->kind(), JsonValue::Kind::kObject) << path;
  }
  // The field sssw_perf_smoke reads its CI floor from.
  const auto convergence = parse_json(slurp(root / "BENCH_convergence.json"));
  ASSERT_TRUE(convergence.has_value());
  EXPECT_TRUE((*convergence)["perf_smoke_min_ratio"].number<double>());
}

TEST(Json, StringsDecodeEscapes) {
  const auto doc = parse_json(R"(["a\u2014b", "\u00e9\u0041", "\"\\\/\b\f\n\r\t"])");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->items().size(), 3u);
  EXPECT_EQ(doc->items()[0].string(), "a\xE2\x80\x94" "b");
  EXPECT_EQ(doc->items()[1].string(), "\xC3\xA9" "A");
  EXPECT_EQ(doc->items()[2].string(), "\"\\/\b\f\n\r\t");
}

TEST(Json, ObjectsKeepOrderAndLookupsChain) {
  const auto doc = parse_json(R"({"b": 1, "a": {"c": [true, false, null]}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->keys(), (std::vector<std::string>{"b", "a"}));
  const JsonValue& c = (*doc)["a"]["c"];
  ASSERT_EQ(c.kind(), JsonValue::Kind::kArray);
  ASSERT_EQ(c.items().size(), 3u);
  EXPECT_EQ(c.items()[0].boolean(), true);
  EXPECT_EQ(c.items()[1].boolean(), false);
  EXPECT_EQ(c.items()[2].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ((*doc)["missing"]["deeper"].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ((*doc)["b"]["not-an-object"].kind(), JsonValue::Kind::kNull);
  EXPECT_FALSE((*doc)["b"].string().has_value());
  EXPECT_FALSE((*doc)["a"].number<double>().has_value());
}

TEST(Json, NumbersConvertExactlyOrNotAtAll) {
  const auto number = [](const char* text) {
    const auto doc = parse_json(text);
    EXPECT_TRUE(doc.has_value()) << text;
    return doc.value_or(JsonValue{});
  };
  EXPECT_EQ(number("4294967295").number<std::uint32_t>(), 4294967295u);
  EXPECT_FALSE(number("4294967296").number<std::uint32_t>());  // 2^32
  EXPECT_EQ(number("9007199254740993").number<std::uint64_t>(),
            (std::uint64_t{1} << 53) + 1);
  EXPECT_EQ(number("18446744073709551615").number<std::uint64_t>(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(number("18446744073709551616").number<std::uint64_t>());
  EXPECT_FALSE(number("-1").number<std::uint64_t>());
  EXPECT_FALSE(number("1.5").number<std::uint64_t>());
  EXPECT_FALSE(number("1e3").number<std::uint64_t>());
  EXPECT_EQ(number("1e3").number<double>(), 1000.0);
  EXPECT_EQ(number("-0.25").number<double>(), -0.25);
  EXPECT_FALSE(number("1e999").number<double>());  // overflows, not inf
  EXPECT_FALSE(number("\"12\"").number<std::uint64_t>());
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* text : {
           "",              // empty
           "{\"a\":1",      // truncated object
           "[1,2",          // truncated array
           "\"abc",         // truncated string
           "tru",           // truncated literal
           "{} x",          // trailing text
           "1 2",           // two documents
           "\"\\x\"",       // unknown escape
           "\"\\u12\"",     // short \u escape
           "\"\\uZZZZ\"",   // non-hex \u escape
           "\"\\ud800\"",   // surrogate half
           "+1",            // leading plus
           "01",            // leading zero
           "1.",            // fraction without digits
           "inf", "-inf", "nan", "NaN", "Infinity",
           "[1,]",          // trailing comma
           "{\"a\":1,}",
           "{a:1}",         // unquoted key
           "'a'",           // single quotes
           "\"a\nb\"",      // raw control character
       })
    EXPECT_FALSE(parse_json(text).has_value()) << text;
}

TEST(Json, NestingIsBounded) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parse_json(nested(kJsonMaxDepth)).has_value());
  EXPECT_FALSE(parse_json(nested(kJsonMaxDepth + 1)).has_value());
  std::string objects;
  for (std::size_t i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"k\":";
  objects += "0" + std::string(kJsonMaxDepth + 1, '}');
  EXPECT_FALSE(parse_json(objects).has_value());
}

TEST(Json, WriterRoundTripsThroughTheReader) {
  const std::string text = "quote\" backslash\\ newline\n bell\x07 dash\xE2\x80\x94";
  std::string out;
  append_json_string(out, text);
  EXPECT_EQ(out.find('\n'), std::string::npos);  // control characters escaped
  const auto parsed = parse_json(out);
  ASSERT_TRUE(parsed.has_value()) << out;
  EXPECT_EQ(parsed->string(), text);

  for (const double value : {0.1, 1e-9, -2.5, 1.7976931348623157e308,
                             std::numeric_limits<double>::denorm_min()}) {
    std::string number;
    append_json_number(number, value);
    const auto back = parse_json(number);
    ASSERT_TRUE(back.has_value()) << number;
    const double read = back->number<double>().value_or(0.0);
    EXPECT_EQ(std::memcmp(&read, &value, sizeof value), 0) << number;
  }
  std::string big;
  append_json_number(big, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(big, "18446744073709551615");
  std::string small;
  append_json_number(small, std::uint32_t{7});
  EXPECT_EQ(small, "7");
}

}  // namespace
}  // namespace sssw::util
