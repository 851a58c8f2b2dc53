#include <gtest/gtest.h>

#include "analysis/report.hpp"

namespace sm::analysis {
namespace {

TEST(Table, MarkdownRendering) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(uint64_t{42})});
  t.add_row({"beta", Table::pct(0.1234)});
  std::string md = t.to_markdown();
  EXPECT_NE(md.find("| name"), std::string::npos);
  EXPECT_NE(md.find("| alpha"), std::string::npos);
  EXPECT_NE(md.find("12.34%"), std::string::npos);
  // Header separator present.
  EXPECT_NE(md.find("| ----"), std::string::npos);
}

TEST(Table, TsvRendering) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_tsv(), "a\tb\n1\t2\n");
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::string md = t.to_markdown();
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(md.find("only"), std::string::npos);
}

}  // namespace
}  // namespace sm::analysis
