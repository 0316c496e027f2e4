#include "obs/trace_export.hh"

#include <cstdio>
#include <map>
#include <sstream>

#include "resilience/artifact.hh"
#include "util/json.hh"

namespace msim::obs
{

std::string
formatUs(double us)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceEvent> &events,
                 double frequencyMhz)
{
    const double cyclesPerUs =
        frequencyMhz > 0.0 ? frequencyMhz : 1.0;

    // One tid lane per distinct event name, grouped by category so
    // related lanes sort together in the viewer.
    std::map<std::string, int> lanes;
    for (const TraceEvent &e : events) {
        const std::string key =
            std::string(traceCategoryName(e.category)) + ":" + e.name;
        lanes.emplace(key, static_cast<int>(lanes.size()));
    }

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto &[key, tid] : lanes) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << tid << ",\"args\":{\"name\":"
           << util::jsonString(key) << "}}";
    }
    for (const TraceEvent &e : events) {
        const std::string key =
            std::string(traceCategoryName(e.category)) + ":" + e.name;
        const int tid = lanes[key];
        const double ts =
            static_cast<double>(e.begin) / cyclesPerUs;
        const double dur =
            static_cast<double>(e.end - e.begin) / cyclesPerUs;
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":" << util::jsonString(e.name) << ",\"cat\":\""
           << traceCategoryName(e.category) << "\",\"ph\":\""
           << (e.end > e.begin ? 'X' : 'i') << "\",\"ts\":"
           << formatUs(ts);
        if (e.end > e.begin)
            os << ",\"dur\":" << formatUs(dur);
        else
            os << ",\"s\":\"t\"";
        os << ",\"pid\":0,\"tid\":" << tid << ",\"args\":{\"frame\":"
           << e.frame << ",\"cycle\":" << e.begin << ",\"arg\":"
           << e.arg << "}}";
    }
    os << "]}\n";
}

resilience::Expected<void>
writeChromeTrace(const std::string &path, const TraceBuffer &buf,
                 double frequencyMhz)
{
    std::ostringstream out;
    writeChromeTrace(out, buf.snapshot(), frequencyMhz);
    return resilience::atomicWriteFile(path, out.str());
}

void
writeTraceCsv(std::ostream &os, const std::vector<TraceEvent> &events)
{
    os << "name,category,frame,begin_cycle,end_cycle,arg\n";
    for (const TraceEvent &e : events)
        os << e.name << ',' << traceCategoryName(e.category) << ','
           << e.frame << ',' << e.begin << ',' << e.end << ','
           << e.arg << '\n';
}

resilience::Expected<void>
writeTraceCsv(const std::string &path, const TraceBuffer &buf)
{
    std::ostringstream out;
    writeTraceCsv(out, buf.snapshot());
    return resilience::atomicWriteFile(path, out.str());
}

} // namespace msim::obs
