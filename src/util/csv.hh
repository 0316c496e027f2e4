/**
 * @file
 * Fixed-schema numeric CSV writer. The bench outputs are tables of
 * doubles with a one-line header, which keeps the format trivially
 * diffable.
 */

#ifndef MSIM_UTIL_CSV_HH
#define MSIM_UTIL_CSV_HH

#include <string>
#include <vector>

namespace msim::util
{

struct CsvTable
{
    std::vector<std::string> header;
    std::vector<std::vector<double>> rows;
};

/**
 * Write @p table to @p path: the header line, then one line per row
 * of %.17g cells. Fatal on I/O failure.
 */
void writeCsv(const std::string &path, const CsvTable &table);

} // namespace msim::util

#endif // MSIM_UTIL_CSV_HH
