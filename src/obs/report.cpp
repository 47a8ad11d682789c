#include "obs/report.hpp"

#include "util/json.hpp"

namespace coolair {
namespace obs {

void
writeRunReport(std::ostream &os, const RunReport &report,
               const StatsRegistry &stats, const DumpOptions &options)
{
    os << "{\n";
    os << "  \"spec\": " << util::jsonQuote(report.specText) << ",\n";
    os << "  \"seed\": " << report.seed << ",\n";
    os << "  \"wall_seconds\": " << formatDouble(report.wallSeconds) << ",\n";
    os << "  \"sim_seconds\": " << formatDouble(report.simSeconds) << ",\n";
    for (const auto &[name, value] : report.annotations)
        os << "  " << util::jsonQuote(name) << ": "
           << util::jsonQuote(value) << ",\n";
    os << "  \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : report.metrics) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    " << util::jsonQuote(name) << ": " << formatDouble(value);
    }
    if (!first)
        os << "\n  ";
    os << "},\n";
    os << "  \"stats\": ";
    stats.dumpJson(os, options, 2);
    os << "\n}\n";
}

} // namespace obs
} // namespace coolair
