#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/strings.hpp"
#include "core/report_json.hpp"
#include "simcheck/json.hpp"

namespace sm::core {
namespace {

using common::json_escape;

TEST(JsonEscape, PassesPlainText) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape(std::string_view("\r\b\f\x1f\0", 5)),
            "\\r\\b\\f\\u001f\\u0000");
}

TEST(JsonEscape, WriterMatchesAppender) {
  // Every byte value, through both entry points of the one escape rule.
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  std::string written(6 * all.size(), '\0');
  written.resize(static_cast<size_t>(
      common::write_json_escaped(written.data(), all) - written.data()));
  EXPECT_EQ(written, json_escape(all));
}

TEST(JsonEscape, PreservesUtf8Bytes) {
  std::string s = "六四";  // multibyte UTF-8 passes through
  EXPECT_EQ(json_escape(s), s);
}

TEST(ToJson, ProbeReportFields) {
  ProbeReport r;
  r.technique = "scan";
  r.target = "198.18.0.90:80";
  r.verdict = Verdict::BlockedTimeout;
  r.detail = "said \"nothing\"";
  r.packets_sent = 100;
  r.samples = 100;
  r.samples_blocked = 1;
  r.attempts = 3;
  r.confidence = conclude(0, 0, 3, 3);
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"technique\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"blocked-timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"blocked\":true"), std::string::npos);
  EXPECT_NE(json.find("said \\\"nothing\\\""), std::string::npos);
  EXPECT_NE(json.find("\"packets_sent\":100"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\":3"), std::string::npos);
  EXPECT_NE(json.find("\"confidence\":{\"conclusion\":\"blocked\""),
            std::string::npos);
  EXPECT_NE(json.find("\"silent\":3"), std::string::npos);
}

TEST(ToJson, RiskReportFields) {
  RiskReport r;
  r.technique = "spam";
  r.evaded = true;
  r.noise_alerts = 2;
  r.suspicion = 0.25;
  r.attribution_probability = 0.05;
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"evaded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"noise_alerts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"suspicion\":0.25"), std::string::npos);
}

TEST(ToJsonl, OneObjectPerLine) {
  ProbeReport p;
  p.technique = "x";
  RiskReport r;
  r.technique = "x";
  auto jsonl = to_jsonl({{p, r}, {p, r}});
  size_t newlines = 0;
  for (char c : jsonl)
    if (c == '\n') ++newlines;
  EXPECT_EQ(newlines, 2u);
  EXPECT_NE(jsonl.find("{\"measurement\":{"), std::string::npos);
  EXPECT_NE(jsonl.find(",\"risk\":{"), std::string::npos);
}

TEST(ToJson, BalancedBracesAndQuotes) {
  // Structural sanity: every emitted object has balanced braces and an
  // even number of unescaped quotes.
  ProbeReport p;
  p.technique = "q\"uo\\te";
  p.detail = "newline\nhere";
  std::string json = to_json(p);
  int depth = 0;
  size_t quotes = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    bool escaped = i > 0 && json[i - 1] == '\\' &&
                   (i < 2 || json[i - 2] != '\\');
    if (c == '{' && !escaped) ++depth;
    if (c == '}' && !escaped) --depth;
    if (c == '"' && !escaped) ++quotes;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
}

// --- simcheck::Json::parse strictness ----------------------------------

using simcheck::Json;

TEST(JsonParse, RejectsRawControlBytesInStrings) {
  // RFC 8259 section 7: a string's control bytes (below 0x20) must be
  // escaped. Strict readers (Python's json.loads) refuse the raw form.
  for (int c = 0; c < 0x20; ++c) {
    std::string doc = "{\"k\":\"a";
    doc += static_cast<char>(c);
    doc += "b\"}";
    EXPECT_FALSE(Json::parse(doc).has_value()) << "byte " << c;
  }
  EXPECT_FALSE(Json::parse("[\"tab\there\"]").has_value());
  EXPECT_FALSE(Json::parse("{\"line\nbreak\":1}").has_value());  // in a key
}

TEST(JsonParse, AcceptsEscapedControlsAndRawHighBytes) {
  const auto doc = Json::parse("{\"k\":\"a\\tb\\u0001\\n\x7f六\"}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("k")->as_string(), "a\tb\x01\n\x7f六");
  // Whitespace between tokens may still be raw tab / CR / LF.
  EXPECT_TRUE(Json::parse("{\t\"k\":\r\n[1,\n2]}").has_value());
}

TEST(JsonParse, EveryCheckedInFixtureParses) {
  namespace fs = std::filesystem;
  size_t documents = 0;
  for (const char* dir : {"corpus", "golden"}) {
    const fs::path root = fs::path(SM_TEST_DIR) / dir;
    for (const auto& entry : fs::directory_iterator(root)) {
      const std::string ext = entry.path().extension().string();
      if (ext != ".json" && ext != ".jsonl") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      const std::string text((std::istreambuf_iterator<char>(in)), {});
      if (ext == ".json") {
        EXPECT_TRUE(Json::parse(text).has_value()) << entry.path();
        ++documents;
        continue;
      }
      std::istringstream lines(text);
      for (std::string line; std::getline(lines, line);) {
        EXPECT_TRUE(Json::parse(line).has_value())
            << entry.path() << ": " << line;
        ++documents;
      }
    }
  }
  EXPECT_GT(documents, 10u);
}

}  // namespace
}  // namespace sm::core
