/**
 * @file
 * One scratch directory per test process, so concurrent test runs and
 * build trees never share files. It is made with mkdtemp under the
 * system temp dir on first use and removed when the process exits.
 */

#ifndef MSIM_TESTS_SCRATCH_DIR_HH
#define MSIM_TESTS_SCRATCH_DIR_HH

#include <stdlib.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace msim::test
{

/** This process's private scratch directory (created on first call). */
inline const std::filesystem::path &
scratchDir()
{
    struct Dir
    {
        std::filesystem::path path;
        pid_t owner = ::getpid();

        Dir()
        {
            std::string pattern =
                (std::filesystem::temp_directory_path() /
                 "megsim_test_XXXXXX")
                    .string();
            if (::mkdtemp(pattern.data()) == nullptr)
                throw std::system_error(errno, std::generic_category(),
                                        "mkdtemp " + pattern);
            path = pattern;
        }

        ~Dir()
        {
            // Forked children that exit normally run this too; only
            // the process that made the directory removes it.
            if (::getpid() != owner)
                return;
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Dir dir;
    return dir.path;
}

} // namespace msim::test

#endif // MSIM_TESTS_SCRATCH_DIR_HH
