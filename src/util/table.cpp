#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>

#include "util/logging.hpp"

namespace coolair {
namespace util {

TextTable::TextTable(std::vector<std::string> header)
{
    if (header.empty())
        panic("TextTable: header must be non-empty");
    _rows.push_back(std::move(header));
}

void
TextTable::addRow(std::vector<std::string> row)
{
    if (row.size() != _rows.front().size())
        panic("TextTable::addRow: arity mismatch");
    _rows.push_back(std::move(row));
}

std::string
TextTable::fmt(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<size_t> widths(_rows.front().size(), 0);
    for (const auto &row : _rows) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        os << "|";
        for (size_t c = 0; c < row.size(); ++c)
            os << " " << std::left << std::setw(int(widths[c])) << row[c]
               << " |";
        os << "\n";
    };

    print_row(_rows.front());
    os << "|";
    for (size_t c = 0; c < widths.size(); ++c)
        os << std::string(widths[c] + 2, '-') << "|";
    os << "\n";
    for (size_t r = 1; r < _rows.size(); ++r)
        print_row(_rows[r]);
}

} // namespace util
} // namespace coolair
