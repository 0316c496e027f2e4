#include "util/csv.hh"

#include <cstdio>
#include <fstream>

#include "sim/logging.hh"

namespace msim::util
{

namespace
{

std::string
csvToString(const CsvTable &table)
{
    std::string out;
    for (std::size_t c = 0; c < table.header.size(); ++c) {
        if (c)
            out += ',';
        out += table.header[c];
    }
    out += '\n';
    char buf[64];
    for (const auto &row : table.rows) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            // %.17g round-trips doubles exactly; counters print short.
            std::snprintf(buf, sizeof(buf), "%.17g", row[c]);
            if (c)
                out += ',';
            out += buf;
        }
        out += '\n';
    }
    return out;
}

} // namespace

void
writeCsv(const std::string &path, const CsvTable &table)
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("cannot write CSV file '%s'", path.c_str());
    out << csvToString(table);
    if (!out)
        sim::fatal("error writing CSV file '%s'", path.c_str());
}

} // namespace msim::util
