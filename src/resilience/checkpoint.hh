/**
 * @file
 * Checkpoint/resume for long simulation passes.
 *
 * A checkpoint is three files next to the cache artifacts:
 *
 *   <stem>.ckpt.manifest      versioned, written once by resume()
 *                             before the first append:
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
 * than the other. resume() recovers the shorter valid prefix of the
 * two (capped at the total), truncates both journals back to it, and
 * the pass continues from there, having lost at most the frame in
 * flight. Because every frame simulates cold (order-independent), a
 * resumed run is bit-identical to an uninterrupted one.
 */

#ifndef MSIM_RESILIENCE_CHECKPOINT_HH
#define MSIM_RESILIENCE_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "resilience/expected.hh"

namespace msim::resilience
{

class Checkpoint
{
  public:
    /**
     * @p stem is the directory + artifact stem the checkpoint files
     * hang off; @p fingerprint keys the checkpoint to its scene and
     * GPU config; the column counts validate journal rows.
     */
    Checkpoint(std::string stem, std::uint64_t fingerprint,
               std::size_t totalFrames, std::size_t statsCols,
               std::size_t activityCols);

    /**
     * Recover a previous run's progress. Returns the number of
     * completed frames recovered (0 when there is no usable
     * checkpoint); their rows are in statsRows()/activityRows().
     * Also opens the journals for appending and writes the manifest,
     * the only time it is written.
     */
    std::size_t resume();

    const std::vector<std::vector<double>> &statsRows() const
    {
        return statsRows_;
    }

    const std::vector<std::vector<double>> &activityRows() const
    {
        return activityRows_;
    }

    /** Journal one completed frame (both lines flushed). */
    void append(const std::vector<double> &statsRow,
                const std::vector<double> &activityRow);

    /** Delete the checkpoint files (pass finished or state unusable). */
    void discard();

    std::size_t frames() const { return frames_; }
    bool writable() const { return !writeFailed_; }

    std::string manifestPath() const { return stem_ + ".ckpt.manifest"; }
    std::string statsJournalPath() const
    {
        return stem_ + ".ckpt.stats.jnl";
    }
    std::string activityJournalPath() const
    {
        return stem_ + ".ckpt.activity.jnl";
    }

  private:
    std::string manifestText() const;
    void failWrites(const char *what);

    std::string stem_;
    std::uint64_t fingerprint_;
    std::size_t totalFrames_;
    std::size_t statsCols_;
    std::size_t activityCols_;

    std::vector<std::vector<double>> statsRows_;
    std::vector<std::vector<double>> activityRows_;
    std::ofstream statsJnl_;
    std::ofstream activityJnl_;
    std::size_t frames_ = 0;
    bool writeFailed_ = false;
};

} // namespace msim::resilience

#endif // MSIM_RESILIENCE_CHECKPOINT_HH
