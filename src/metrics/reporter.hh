/**
 * @file
 * Fixed-width ASCII table output for benches and examples.
 */

#ifndef NEON_METRICS_REPORTER_HH
#define NEON_METRICS_REPORTER_HH

#include <iostream>
#include <string>
#include <vector>

namespace neon
{

/** Minimal column-aligned table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append one row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Render to @p os with column alignment and a rule under header. */
    void print(std::ostream &os = std::cout) const;

    /** How num() interprets its digit count. */
    enum class Digits
    {
        Fixed,       ///< digits after the decimal point
        Significant, ///< total significant digits
    };

    /** Format a double with @p precision fixed or significant digits. */
    static std::string num(double v, int precision = 2,
                           Digits mode = Digits::Fixed);

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace neon

#endif // NEON_METRICS_REPORTER_HH
