#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace yoso {
namespace {

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTable, PrintsAlignedColumns) {
  TextTable t({"name", "v"});
  t.add_row({"long-name", "1"});
  t.add_row({"x", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
  EXPECT_EQ(TextTable::fmt_int(-42), "-42");
}

}  // namespace
}  // namespace yoso
