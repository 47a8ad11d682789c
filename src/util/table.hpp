#ifndef COOLAIR_UTIL_TABLE_HPP
#define COOLAIR_UTIL_TABLE_HPP

/**
 * @file
 * The plain-text table emitter the bench harnesses print the paper's
 * tables and figure series with.
 */

#include <ostream>
#include <string>
#include <vector>

namespace coolair {
namespace util {

/**
 * A simple column-aligned text table.  Rows are collected as strings and
 * rendered with per-column padding, markdown-style.
 */
class TextTable
{
  public:
    /** Construct with a header row. */
    explicit TextTable(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format doubles with @p precision decimals. */
    static std::string fmt(double value, int precision = 2);

    /** Render the table to @p os. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::vector<std::string>> _rows;
};

} // namespace util
} // namespace coolair

#endif // COOLAIR_UTIL_TABLE_HPP
