#include "resilience/checkpoint.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "obs/stats.hh"
#include "resilience/artifact.hh"
#include "resilience/checksum.hh"
#include "resilience/fault.hh"
#include "sim/logging.hh"

namespace msim::resilience
{

namespace
{

constexpr std::uint32_t kCheckpointVersion = 2;

obs::Scalar &
counter(const char *name, const char *desc)
{
    return obs::processRegistry().scalar(
        std::string("resilience.checkpoint.") + name, desc);
}

/**
 * One journal line: each cell as the shortest string that strtod()
 * reads back to the same double, then the line's FNV-1a checksum.
 */
std::string
journalLine(const std::vector<double> &row)
{
    std::string line;
    char buf[32]; // the longest shortest double is 24 chars
    for (std::size_t c = 0; c < row.size(); ++c) {
        if (c)
            line += ',';
        line.append(buf,
                    std::to_chars(buf, buf + sizeof(buf), row[c]).ptr);
    }
    char tail[24];
    std::snprintf(tail, sizeof(tail), "#%016" PRIx64, fnv1a(line));
    return line + tail;
}

/**
 * Parse journal text into rows, stopping at the first line that is
 * torn, mis-checksummed or has the wrong width — everything after a
 * bad line is unusable because appends are strictly ordered.
 */
std::vector<std::vector<double>>
parseJournal(const std::string &text, std::size_t cols)
{
    std::vector<std::vector<double>> rows;
    std::stringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        const std::size_t hash = line.rfind('#');
        if (hash == std::string::npos)
            break;
        const std::string payload = line.substr(0, hash);
        std::uint64_t stored = 0;
        if (std::sscanf(line.c_str() + hash, "#%" SCNx64, &stored) != 1)
            break;
        if (fnv1a(payload) != stored)
            break;
        std::vector<double> row;
        row.reserve(cols);
        std::stringstream cells(payload);
        std::string cell;
        while (std::getline(cells, cell, ','))
            row.push_back(std::strtod(cell.c_str(), nullptr));
        if (row.size() != cols)
            break;
        rows.push_back(std::move(row));
    }
    return rows;
}

std::string
journalText(const std::vector<std::vector<double>> &rows)
{
    std::string text;
    for (const std::vector<double> &row : rows) {
        text += journalLine(row);
        text += '\n';
    }
    return text;
}

} // namespace

Checkpoint::Checkpoint(std::string stem, std::uint64_t fingerprint,
                       std::size_t totalFrames, std::size_t statsCols,
                       std::size_t activityCols)
    : stem_(std::move(stem)), fingerprint_(fingerprint),
      totalFrames_(totalFrames), statsCols_(statsCols),
      activityCols_(activityCols)
{}

std::size_t
Checkpoint::resume()
{
    statsRows_.clear();
    activityRows_.clear();
    frames_ = 0;

    auto manifest = readFileToString(manifestPath());
    if (manifest.ok()) {
        if (*manifest != manifestText()) {
            sim::warn("checkpoint '%s' does not match this run; "
                      "starting over",
                      manifestPath().c_str());
            discard();
        } else {
            auto statsText = readFileToString(statsJournalPath());
            auto activityText =
                readFileToString(activityJournalPath());
            if (statsText.ok() && activityText.ok()) {
                statsRows_ = parseJournal(*statsText, statsCols_);
                activityRows_ =
                    parseJournal(*activityText, activityCols_);
                frames_ = std::min({statsRows_.size(),
                                    activityRows_.size(),
                                    totalFrames_});
                statsRows_.resize(frames_);
                activityRows_.resize(frames_);
            } else {
                sim::warn("checkpoint journals for '%s' unreadable; "
                          "starting over",
                          stem_.c_str());
                discard();
            }
        }
    } else if (manifest.error().code != Errc::NotFound) {
        sim::warn("checkpoint manifest '%s' unreadable: %s",
                  manifestPath().c_str(),
                  manifest.error().message.c_str());
    }

    if (frames_ > 0) {
        // Drop any torn tail and the longer journal's extra line so
        // the files on disk exactly mirror the recovered state before
        // we append to them.
        auto statsOk = atomicWriteFile(statsJournalPath(),
                                       journalText(statsRows_));
        auto activityOk = atomicWriteFile(activityJournalPath(),
                                          journalText(activityRows_));
        if (!statsOk.ok() || !activityOk.ok()) {
            failWrites("truncating journals");
        } else {
            counter("frames_resumed",
                    "frames recovered from checkpoints") +=
                static_cast<double>(frames_);
            sim::inform("resuming '%s' from checkpoint: %zu/%zu frames "
                        "already done",
                        stem_.c_str(), frames_, totalFrames_);
        }
    } else {
        discard();
    }

    if (!writeFailed_) {
        statsJnl_.open(statsJournalPath(), std::ios::app);
        activityJnl_.open(activityJournalPath(), std::ios::app);
        if (!statsJnl_ || !activityJnl_)
            failWrites("opening journals");
        else if (!atomicWriteFile(manifestPath(), manifestText()).ok())
            failWrites("writing the manifest");
    }
    return frames_;
}

void
Checkpoint::append(const std::vector<double> &statsRow,
                   const std::vector<double> &activityRow)
{
    if (writeFailed_)
        return;
    if (FaultInjector::global().failWrite(statsJournalPath())) {
        failWrites("appending to journals (injected)");
        return;
    }
    statsJnl_ << journalLine(statsRow) << '\n';
    activityJnl_ << journalLine(activityRow) << '\n';
    statsJnl_.flush();
    activityJnl_.flush();
    if (!statsJnl_ || !activityJnl_) {
        failWrites("appending to journals");
        return;
    }
    ++frames_;
}

std::string
Checkpoint::manifestText() const
{
    char text[160];
    std::snprintf(text, sizeof(text),
                  "megsim-checkpoint v%" PRIu32 "\n"
                  "fingerprint %016" PRIx64 "\n"
                  "total %zu stats_cols %zu activity_cols %zu\n",
                  kCheckpointVersion, fingerprint_, totalFrames_,
                  statsCols_, activityCols_);
    return text;
}

void
Checkpoint::failWrites(const char *what)
{
    if (writeFailed_)
        return;
    writeFailed_ = true;
    ++counter("write_failures", "checkpoints disabled by I/O errors");
    sim::warn("checkpointing of '%s' disabled: %s failed — the run "
              "continues without crash protection",
              stem_.c_str(), what);
}

void
Checkpoint::discard()
{
    statsJnl_.close();
    activityJnl_.close();
    std::error_code ec;
    std::filesystem::remove(manifestPath(), ec);
    std::filesystem::remove(statsJournalPath(), ec);
    std::filesystem::remove(activityJournalPath(), ec);
}

} // namespace msim::resilience
