#include "resilience/checkpoint.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

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

/** `#` and 16 lowercase hex digits. */
constexpr std::size_t kTagSize = 17;

obs::Scalar &
counter(const char *name, const char *desc)
{
    return obs::processRegistry().scalar(
        std::string("resilience.checkpoint.") + name, desc);
}

/** The checksum tag closing a line whose payload is @p payload. */
void
checksumTag(std::string_view payload, char tag[kTagSize])
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::uint64_t sum = fnv1a(payload);
    tag[0] = '#';
    for (std::size_t i = kTagSize - 1; i > 0; --i, sum >>= 4)
        tag[i] = kHex[sum & 0xf];
}

/**
 * Parse one line (without its newline) into @p row; returns why the
 * line is refused, or null.
 */
const char *
parseLine(std::string_view line, std::size_t cols,
          std::optional<std::size_t> frame, std::vector<double> &row)
{
    if (line.size() < kTagSize || line[line.size() - kTagSize] != '#')
        return "has no checksum";
    const std::string_view payload =
        line.substr(0, line.size() - kTagSize);
    char tag[kTagSize];
    checksumTag(payload, tag);
    if (std::memcmp(tag, line.data() + payload.size(), kTagSize) != 0)
        return "fails its checksum";

    row.clear();
    row.reserve(cols);
    const char *cell = payload.data();
    const char *const end = cell + payload.size();
    for (;;) {
        const char *stop = static_cast<const char *>(
            std::memchr(cell, ',', static_cast<std::size_t>(end - cell)));
        if (!stop)
            stop = end;
        double value = 0.0;
        const auto [next, ec] = std::from_chars(cell, stop, value);
        if (ec != std::errc() || next != stop || !std::isfinite(value))
            return "holds a cell that is not a finite number";
        row.push_back(value);
        if (stop == end)
            break;
        cell = stop + 1;
    }
    if (row.size() != cols)
        return "has the wrong number of cells";
    if (frame && row[0] != static_cast<double>(*frame))
        return "is out of frame order";
    return nullptr;
}

/**
 * One journal line for @p row, without its newline: each cell the
 * shortest string that reads back to the same double, then the tag.
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
    char tag[kTagSize];
    checksumTag(line, tag);
    line.append(tag, kTagSize);
    return line;
}

std::string
journalText(const Rows &rows)
{
    std::string text;
    for (const std::vector<double> &row : rows) {
        text += journalLine(row);
        text += '\n';
    }
    return text;
}

} // namespace

JournalRows
parseJournal(std::string_view text, std::size_t cols,
             std::size_t maxRows, std::optional<std::size_t> firstFrame)
{
    JournalRows out;
    std::size_t pos = 0;
    std::vector<double> row;
    while (out.rows.size() < maxRows) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            break; // the end, or a torn tail
        std::optional<std::size_t> frame;
        if (firstFrame)
            frame = *firstFrame + out.rows.size();
        if (const char *problem =
                parseLine(text.substr(pos, eol - pos), cols, frame, row)) {
            out.badLine = out.rows.size() + 1;
            out.problem = problem;
            break;
        }
        out.rows.push_back(std::move(row));
        pos = eol + 1;
    }
    out.tail = pos != text.size();
    return out;
}

Checkpoint::Checkpoint(std::string stem, std::uint64_t fingerprint,
                       std::size_t totalFrames, std::size_t statsCols,
                       std::size_t activityCols,
                       std::optional<std::size_t> firstFrame)
    : stem_(std::move(stem)), fingerprint_(fingerprint),
      totalFrames_(totalFrames), statsCols_(statsCols),
      activityCols_(activityCols), firstFrame_(firstFrame)
{}

Expected<CheckpointRows>
Checkpoint::read() const
{
    auto manifest = readFileToString(manifestPath());
    if (!manifest.ok())
        return manifest.error();
    if (*manifest != manifestText())
        return errorf(Errc::BadFingerprint,
                      "'%s' keys another scene, GPU config, row shape "
                      "or format",
                      manifestPath().c_str());

    CheckpointRows found;
    struct Journal
    {
        const char *kind;
        std::size_t cols;
        JournalRows &out;
    };
    for (const Journal &j :
         {Journal{"stats", statsCols_, found.stats},
          Journal{"activity", activityCols_, found.activity}}) {
        auto text = readFileToString(journalPath(j.kind));
        if (!text.ok()) {
            if (text.error().code == Errc::NotFound)
                continue; // no line journaled yet
            return text.error();
        }
        j.out = parseJournal(*text, j.cols, totalFrames_, firstFrame_);
        if (!text->empty() && FaultInjector::global().corruptCache(j.kind))
            j.out = JournalRows{{}, 1, "is refused (injected corruption)",
                                true};
    }
    return found;
}

std::size_t
Checkpoint::resume()
{
    statsRows_.clear();
    activityRows_.clear();
    frames_ = 0;

    auto found = read();
    bool manifestOnDisk = found.ok();
    if (!found.ok() && found.error().code != Errc::NotFound)
        sim::warn("checkpoint '%s' unusable (%s); starting over",
                  stem_.c_str(), found.error().message.c_str());

    if (found.ok()) {
        frames_ = std::min(found->stats.rows.size(),
                           found->activity.rows.size());
        // Drop any torn tail, bad line and the longer journal's extra
        // line so the files on disk exactly mirror the recovered state
        // before we append to them.
        for (JournalRows *j : {&found->stats, &found->activity}) {
            const bool beyond = j->tail || j->rows.size() != frames_;
            j->rows.resize(frames_);
            const std::string path = j == &found->stats
                                         ? statsJournalPath()
                                         : activityJournalPath();
            if (frames_ > 0 && beyond &&
                !atomicWriteFile(path, journalText(j->rows)).ok())
                failWrites("truncating journals");
        }
        statsRows_ = std::move(found->stats.rows);
        activityRows_ = std::move(found->activity.rows);
    }

    if (frames_ > 0) {
        if (!writeFailed_) {
            counter("frames_resumed",
                    "frames recovered from checkpoints") +=
                static_cast<double>(frames_);
            sim::inform("resuming '%s' from checkpoint: %zu/%zu frames "
                        "already done",
                        stem_.c_str(), frames_, totalFrames_);
        }
    } else {
        discard();
        manifestOnDisk = false;
    }

    // The manifest goes first: a failed write leaves no journal behind.
    if (!writeFailed_ && !manifestOnDisk &&
        !atomicWriteFile(manifestPath(), manifestText()).ok())
        failWrites("writing the manifest");
    if (!writeFailed_) {
        statsJnl_.open(statsJournalPath(), std::ios::app);
        activityJnl_.open(activityJournalPath(), std::ios::app);
        if (!statsJnl_ || !activityJnl_)
            failWrites("opening journals");
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

Expected<void>
Checkpoint::write(const Rows &stats, const Rows &activity) const
{
    if (auto written = atomicWriteFile(manifestPath(), manifestText());
        !written.ok())
        return written;
    if (auto written =
            atomicWriteFile(statsJournalPath(), journalText(stats));
        !written.ok())
        return written;
    return atomicWriteFile(activityJournalPath(), journalText(activity));
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
