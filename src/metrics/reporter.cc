#include "metrics/reporter.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace neon
{

Table::Table(std::vector<std::string> header) : header(std::move(header))
{
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != header.size())
        panic("table row width ", row.size(), " != header width ",
              header.size());
    rows.push_back(std::move(row));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header.size());
    for (std::size_t i = 0; i < header.size(); ++i)
        width[i] = header[i].size();
    for (const auto &row : rows) {
        for (std::size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    }

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(width[i]) + 2)
               << cells[i];
        }
        os << "\n";
    };

    emit(header);
    std::size_t total = 0;
    for (std::size_t w : width)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows)
        emit(row);
}

std::string
Table::num(double v, int precision, Digits mode)
{
    std::ostringstream os;
    if (mode == Digits::Fixed)
        os << std::fixed << std::setprecision(precision) << v;
    else
        os << std::defaultfloat << std::setprecision(precision) << v;
    return os.str();
}

} // namespace neon
