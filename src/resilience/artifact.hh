/**
 * @file
 * Whole-file reads and atomic whole-file writes, both consulting the
 * fault-injection hooks. Writes go through a temp file and a rename,
 * so readers never observe a half-written file. The ground-truth
 * cache is a finished checkpoint (resilience/checkpoint.hh), written
 * and read through these.
 */

#ifndef MSIM_RESILIENCE_ARTIFACT_HH
#define MSIM_RESILIENCE_ARTIFACT_HH

#include <string>

#include "resilience/expected.hh"

namespace msim::resilience
{

/** Read a whole file; consults the io.read fault hook. */
Expected<std::string> readFileToString(const std::string &path);

/**
 * Write @p content to @p path via a temp file in the same directory
 * plus an atomic rename; consults the io.write fault hook.
 */
Expected<void> atomicWriteFile(const std::string &path,
                               const std::string &content);

} // namespace msim::resilience

#endif // MSIM_RESILIENCE_ARTIFACT_HH
