#include "resilience/artifact.hh"

#include <filesystem>
#include <fstream>

#include "resilience/fault.hh"

namespace msim::resilience
{

Expected<std::string>
readFileToString(const std::string &path)
{
    if (FaultInjector::global().failRead(path))
        return errorf(Errc::Injected, "injected read failure on '%s'",
                      path.c_str());
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (!std::filesystem::exists(path))
            return errorf(Errc::NotFound, "'%s' does not exist",
                          path.c_str());
        return errorf(Errc::Io, "cannot open '%s' for reading",
                      path.c_str());
    }
    std::string content;
    std::error_code ec;
    if (const auto size = std::filesystem::file_size(path, ec); !ec)
        content.reserve(size);
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
        content.append(buf, static_cast<std::size_t>(in.gcount()));
    if (in.bad())
        return errorf(Errc::Io, "error reading '%s'", path.c_str());
    return content;
}

Expected<void>
atomicWriteFile(const std::string &path, const std::string &content)
{
    if (FaultInjector::global().failWrite(path))
        return errorf(Errc::Injected, "injected write failure on '%s'",
                      path.c_str());
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return errorf(Errc::Io, "cannot open '%s' for writing",
                          tmp.c_str());
        out << content;
        out.flush();
        if (!out)
            return errorf(Errc::Io, "error writing '%s'", tmp.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return errorf(Errc::Io, "cannot rename '%s' into place: %s",
                      tmp.c_str(), ec.message().c_str());
    }
    return {};
}

} // namespace msim::resilience
