/**
 * @file
 * Checkpoint/resume for long simulation passes. A finished checkpoint
 * is also the pass's on-disk cache: there is one row format on disk.
 *
 * A checkpoint is three files:
 *
 *   <stem>.ckpt.manifest      versioned, written before the first
 *                             journal line:
 *                               megsim-checkpoint v2
 *                               fingerprint <16hex>
 *                               total <N> stats_cols <k> activity_cols <m>
 *   <stem>.ckpt.stats.jnl     one line per completed frame: the row's
 *   <stem>.ckpt.activity.jnl  shortest round-trip doubles plus a
 *                             `#<16hex>` FNV-1a line checksum,
 *                             appended + flushed
 *
 * The manifest only keys the journals to their scene, GPU config and
 * row shape; any other manifest (another run's, or an older version)
 * is refused and the pass starts over. Progress lives in the journals
 * alone: a flushed line survives a SIGKILL, so a killed run leaves at
 * worst one torn tail line, and one journal may hold one more line
 * than the other. A journal is complete when its valid prefix reaches
 * the total; a checkpoint whose two journals are complete is a loaded
 * cache, and read() is how every loader sees it.
 *
 * parseJournal() is the one reader of journal lines. It stops at the
 * first line it refuses. A newline-terminated line that fails its
 * checksum, width or frame order is a bad line (corruption); an
 * unterminated last line is the torn tail of a killed append, which
 * ends the prefix without being one. resume() recovers the shorter
 * valid prefix of the two journals (capped at the total), truncates
 * both back to it, and the pass continues from there, having lost at
 * most the frame in flight. Because every frame simulates cold
 * (order-independent), a resumed run is bit-identical to an
 * uninterrupted one.
 */

#ifndef MSIM_RESILIENCE_CHECKPOINT_HH
#define MSIM_RESILIENCE_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/expected.hh"

namespace msim::resilience
{

using Rows = std::vector<std::vector<double>>;

/** One journal as read back from disk. */
struct JournalRows
{
    /** The valid prefix, in frame order. */
    Rows rows;
    /**
     * 1-based number of the first newline-terminated line refused, and
     * why; 0 and null when no line was.
     */
    std::size_t badLine = 0;
    const char *problem = nullptr;
    /** The text holds bytes past the valid prefix. */
    bool tail = false;
};

/**
 * Read at most @p maxRows journal lines of @p cols cells each. A cell
 * is a finite number std::from_chars consumes whole, up to the next
 * `,` or `#`; the line ends in its 16-hex checksum and a newline. With
 * @p firstFrame set, the first cell of line i must be firstFrame + i,
 * which also refuses duplicated and reordered lines.
 */
JournalRows parseJournal(std::string_view text, std::size_t cols,
                         std::size_t maxRows,
                         std::optional<std::size_t> firstFrame = {});

/** Both journals of a checkpoint whose manifest matched. */
struct CheckpointRows
{
    JournalRows stats;
    JournalRows activity;

    bool corrupt() const { return stats.badLine || activity.badLine; }
};

class Checkpoint
{
  public:
    /**
     * @p stem is the directory + stem the checkpoint files hang off;
     * @p fingerprint keys the checkpoint to its scene and GPU config;
     * the column counts validate journal rows. Rows whose first cell
     * is their frame index name the first frame in @p firstFrame.
     */
    Checkpoint(std::string stem, std::uint64_t fingerprint,
               std::size_t totalFrames, std::size_t statsCols,
               std::size_t activityCols,
               std::optional<std::size_t> firstFrame = {});

    /**
     * Read the checkpoint without writing anything. NotFound: there
     * is no manifest. BadFingerprint: the manifest keys another scene,
     * GPU config, row shape or version (corruption). Io/Injected: a
     * file cannot be read. A `cache.corrupt` fault refuses the first
     * line of the journal whose kind it names.
     */
    Expected<CheckpointRows> read() const;

    /**
     * Recover a previous run's progress. Returns the number of
     * completed frames recovered (0 when there is no usable
     * checkpoint); their rows are in statsRows()/activityRows().
     * Writes the manifest when it is not already on disk, then opens
     * the journals for appending.
     */
    std::size_t resume();

    const Rows &statsRows() const { return statsRows_; }
    const Rows &activityRows() const { return activityRows_; }

    /** Journal one completed frame (both lines flushed). */
    void append(const std::vector<double> &statsRow,
                const std::vector<double> &activityRow);

    /**
     * Replace the checkpoint with these rows in one go: the manifest,
     * then each journal whole, through the line writer append() uses.
     */
    Expected<void> write(const Rows &stats, const Rows &activity) const;

    /** Delete the checkpoint files. */
    void discard();

    std::size_t frames() const { return frames_; }
    bool writable() const { return !writeFailed_; }

    std::string manifestPath() const { return stem_ + ".ckpt.manifest"; }
    /** The @p kind ("stats" / "activity") journal's path. */
    std::string journalPath(const std::string &kind) const
    {
        return stem_ + ".ckpt." + kind + ".jnl";
    }
    std::string statsJournalPath() const { return journalPath("stats"); }
    std::string activityJournalPath() const
    {
        return journalPath("activity");
    }

  private:
    std::string manifestText() const;
    void failWrites(const char *what);

    std::string stem_;
    std::uint64_t fingerprint_;
    std::size_t totalFrames_;
    std::size_t statsCols_;
    std::size_t activityCols_;
    std::optional<std::size_t> firstFrame_;

    Rows statsRows_;
    Rows activityRows_;
    std::ofstream statsJnl_;
    std::ofstream activityJnl_;
    std::size_t frames_ = 0;
    bool writeFailed_ = false;
};

} // namespace msim::resilience

#endif // MSIM_RESILIENCE_CHECKPOINT_HH
