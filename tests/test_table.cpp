/**
 * @file
 * Unit tests for the text-table emitter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/table.hpp"

using namespace coolair::util;

TEST(TextTable, RendersAlignedMarkdown)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| name  | value |"), std::string::npos);
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(out.find("|-------|"), std::string::npos);
}

TEST(TextTable, FmtPrecision)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::fmt(3.14159, 0), "3");
    EXPECT_EQ(TextTable::fmt(-1.5, 1), "-1.5");
}

TEST(TextTable, ArityMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}
