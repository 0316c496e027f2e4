/**
 * @file
 * What megsim-cli's units share: the parsed options, the exit codes
 * and the run function of each command. main.cc holds the option and
 * command tables, the parser and the usage text generated from them.
 */

#ifndef MSIM_TOOLS_CLI_CLI_HH
#define MSIM_TOOLS_CLI_CLI_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace msim::batch
{
struct CampaignReport;
} // namespace msim::batch

namespace msim::cli
{

// Distinct per failure class so CI can gate on the code alone; 10 is
// retired and stays unused.
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitLoadFailure = 3;
constexpr int kExitCacheFailure = 4;
constexpr int kExitThresholdBreach = 5;
constexpr int kExitDiffMismatch = 6;
constexpr int kExitLedgerInvalid = 7;
constexpr int kExitDegraded = 8;
constexpr int kExitQueueFull = 9;

/** Frames [begin, end). */
struct Frames
{
    std::size_t begin = 0;
    std::size_t end = 1;
};

/**
 * Every option's value. The parser refuses an option its command does
 * not read, so a field the command does not read keeps its default,
 * and it refuses an empty value, so an empty field was not given.
 */
struct Options
{
    std::string bench = "bbr1";
    std::vector<std::string> benches; // empty = the whole suite
    std::size_t frame = 0; // stats
    Frames frames;         // trace
    std::string filter = "*";
    std::string out; // "" = trace.json (trace), campaign.json
                     // (campaign), no report file (submit)
    std::string csv;
    std::string check;                // campaign: thresholds file
    std::array<std::string, 2> diff;  // campaign: reports to compare
    std::string ledger;   // run-ledger path ("" = next to report)
    std::string timeline; // Chrome timeline path ("" = off)
    std::string validate; // ledger: file to schema-check
    std::string cacheDir; // "" = MEGSIM_CACHE_DIR, then out/cache
    std::string socket;   // serve/submit: unix socket path
    std::string tenant;   // submit: fair-share tenant ("" = default)
    double weight = 1.0;  // submit: fair-share weight
    std::size_t maxRequests = 0; // serve: 0 = serve forever
    std::size_t maxInflight = 0; // serve: 0 = the scheduler's default
    std::size_t workers = 0;     // supervised workers (0 = in-process)
    double scale = 1.0;
    std::size_t threads = 0; // 0 = keep MEGSIM_THREADS / hw default
    bool baseline = false;
    bool attrib = false; // host-cost attribution report
};

// inspect.cc: the simulator's own view of a frame.
int runStats(const Options &opt);
int runTrace(const Options &opt);
// cache.cc: the checkpointed ground-truth pass and its cache.
int runResume(const Options &opt);
int runVerifyCache(const Options &opt);
// campaign.cc: the batch campaign and its artifacts.
int runCampaign(const Options &opt);
int runCampaignDiff(const Options &opt);
int runLedgerValidate(const Options &opt);
// serve.cc: the campaign service and its client.
int runServe(const Options &opt);
int runSubmit(const Options &opt);

// Shared by campaign.cc and serve.cc.
/** The human-readable campaign table (campaign and submit). */
void printCampaignReport(const batch::CampaignReport &report);
/**
 * Write the --timeline Chrome JSON. Telemetry never fails a run that
 * produced its report: a failed write warns, naming the path.
 */
void writeTimelineIfEnabled(const Options &opt);

} // namespace msim::cli

#endif // MSIM_TOOLS_CLI_CLI_HH
