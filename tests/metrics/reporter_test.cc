/**
 * @file
 * Unit tests for the ASCII table reporter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "metrics/reporter.hh"

namespace neon
{
namespace
{

TEST(Table, RendersHeaderRuleAndRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1.00"});
    t.addRow({"beta", "2.50"});

    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();

    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // 4 lines: header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, ColumnsAlignToWidestCell)
{
    Table t({"x", "y"});
    t.addRow({"longer-cell", "1"});
    std::ostringstream os;
    t.print(os);

    std::string line1 = os.str().substr(0, os.str().find('\n'));
    // Header col 2 starts after widest col-1 cell + 2 spaces.
    EXPECT_GE(line1.find('y'), std::string("longer-cell").size() + 2);
}

TEST(TableDeathTest, WrongRowWidthPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "width");
}

TEST(TableNum, FixedPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::num(0.5, 1), "0.5");
}

TEST(TableNum, SignificantDigits)
{
    EXPECT_EQ(Table::num(3.14159, 3, Table::Digits::Significant), "3.14");
    EXPECT_EQ(Table::num(12345.6, 3, Table::Digits::Significant),
              "1.23e+04");
    EXPECT_EQ(Table::num(0.000123456, 3, Table::Digits::Significant),
              "0.000123");
    // Fixed mode would print 0.00 here; significant keeps the signal.
    EXPECT_EQ(Table::num(0.000123456, 2), "0.00");
}

} // namespace
} // namespace neon
