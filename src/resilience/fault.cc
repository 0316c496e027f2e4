#include "resilience/fault.hh"

#include <csignal>
#include <cstdlib>
#include <sstream>

#include "obs/stats.hh"
#include "sim/logging.hh"

namespace msim::resilience
{

namespace
{

obs::Scalar &
injectedCounter(FaultClass cls)
{
    return obs::processRegistry().scalar(
        std::string("resilience.faults.") + faultClassName(cls),
        "faults injected");
}

Expected<FaultClass>
parseClass(const std::string &name)
{
    if (name == "io.read")
        return FaultClass::IoRead;
    if (name == "io.write")
        return FaultClass::IoWrite;
    if (name == "cache.corrupt")
        return FaultClass::CacheCorrupt;
    if (name == "frame.hang")
        return FaultClass::FrameHang;
    if (name == "run.kill")
        return FaultClass::RunKill;
    if (name == "worker.kill")
        return FaultClass::WorkerKill;
    if (name == "worker.hang")
        return FaultClass::WorkerHang;
    return errorf(Errc::BadFormat, "unknown fault class '%s'",
                  name.c_str());
}

std::string
trim(const std::string &text)
{
    std::size_t b = text.find_first_not_of(" \t");
    std::size_t e = text.find_last_not_of(" \t");
    if (b == std::string::npos)
        return "";
    return text.substr(b, e - b + 1);
}

Expected<FaultClause>
parseClause(const std::string &text)
{
    const std::size_t colon = text.find(':');
    const std::string name = trim(text.substr(0, colon));
    auto cls = parseClass(name);
    if (!cls)
        return cls.error();

    FaultClause clause;
    clause.cls = *cls;
    if (colon == std::string::npos)
        return clause;

    std::stringstream params(text.substr(colon + 1));
    std::string param;
    while (std::getline(params, param, ',')) {
        param = trim(param);
        if (param.empty())
            continue;
        const std::size_t eq = param.find('=');
        if (eq == std::string::npos)
            return errorf(Errc::BadFormat,
                          "fault '%s': parameter '%s' is not key=value",
                          name.c_str(), param.c_str());
        const std::string key = trim(param.substr(0, eq));
        const std::string value = trim(param.substr(eq + 1));
        if (key == "p") {
            clause.probability = std::atof(value.c_str());
        } else if (key == "seed") {
            clause.seed = static_cast<std::uint64_t>(
                std::atoll(value.c_str()));
        } else if (key == "frame") {
            clause.frame = static_cast<std::uint64_t>(
                std::atoll(value.c_str()));
        } else if (key == "shard") {
            clause.shard = static_cast<std::uint64_t>(
                std::atoll(value.c_str()));
        } else if (key == "times") {
            clause.times = static_cast<std::uint64_t>(
                std::atoll(value.c_str()));
        } else if (key == "path" || key == "kind") {
            clause.match = value;
        } else {
            return errorf(Errc::BadFormat,
                          "fault '%s': unknown parameter '%s'",
                          name.c_str(), key.c_str());
        }
    }
    return clause;
}

} // namespace

FaultInjector::FaultInjector(const FaultInjector &other)
    : armed_(other.armed_)
{}

FaultInjector &
FaultInjector::operator=(const FaultInjector &other)
{
    if (this != &other) {
        std::lock_guard<std::mutex> lock(mutex_);
        armed_ = other.armed_;
    }
    return *this;
}

const char *
faultClassName(FaultClass cls)
{
    switch (cls) {
      case FaultClass::IoRead: return "io_read";
      case FaultClass::IoWrite: return "io_write";
      case FaultClass::CacheCorrupt: return "cache_corrupt";
      case FaultClass::FrameHang: return "frame_hang";
      case FaultClass::RunKill: return "run_kill";
      case FaultClass::WorkerKill: return "worker_kill";
      case FaultClass::WorkerHang: return "worker_hang";
    }
    return "?";
}

Expected<FaultInjector>
FaultInjector::parse(const std::string &spec)
{
    FaultInjector injector;
    std::stringstream clauses(spec);
    std::string text;
    while (std::getline(clauses, text, ';')) {
        text = trim(text);
        if (text.empty())
            continue;
        auto clause = parseClause(text);
        if (!clause)
            return clause.error();
        injector.armed_.emplace_back(*clause);
    }
    return injector;
}

FaultInjector &
FaultInjector::global()
{
    static FaultInjector injector = [] {
        const char *env = std::getenv("MEGSIM_FAULTS");
        if (!env || !*env)
            return FaultInjector();
        auto parsed = parse(env);
        if (!parsed.ok()) {
            sim::warn("MEGSIM_FAULTS ignored: %s",
                      parsed.error().message.c_str());
            return FaultInjector();
        }
        sim::inform("fault injection armed: %s", env);
        return *parsed;
    }();
    return injector;
}

void
FaultInjector::setGlobalSpec(const std::string &spec)
{
    auto parsed = parse(spec);
    if (!parsed.ok()) {
        sim::warn("fault spec ignored: %s",
                  parsed.error().message.c_str());
        global() = FaultInjector();
        return;
    }
    global() = *parsed;
}

bool
FaultInjector::roll(Armed &armed, const std::string &subject)
{
    if (!armed.clause.match.empty() &&
        subject.find(armed.clause.match) == std::string::npos)
        return false;
    if (armed.clause.probability < 1.0 &&
        armed.rng.uniform() >= armed.clause.probability)
        return false;
    ++injectedCounter(armed.clause.cls);
    return true;
}

bool
FaultInjector::failRead(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Armed &armed : armed_)
        if (armed.clause.cls == FaultClass::IoRead &&
            roll(armed, path))
            return true;
    return false;
}

bool
FaultInjector::failWrite(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Armed &armed : armed_)
        if (armed.clause.cls == FaultClass::IoWrite &&
            roll(armed, path))
            return true;
    return false;
}

bool
FaultInjector::corruptCache(const std::string &kind)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Armed &armed : armed_)
        if (armed.clause.cls == FaultClass::CacheCorrupt &&
            roll(armed, kind))
            return true;
    return false;
}

bool
FaultInjector::hangFrame(std::uint64_t frame)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Armed &armed : armed_) {
        if (armed.clause.cls != FaultClass::FrameHang)
            continue;
        if (armed.clause.frame != ~0ULL) {
            if (armed.clause.frame == frame && roll(armed, ""))
                return true;
        } else if (roll(armed, "")) {
            return true;
        }
    }
    return false;
}

void
FaultInjector::maybeKillAfterFrame(std::uint64_t frame)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Armed &armed : armed_) {
        if (armed.clause.cls != FaultClass::RunKill ||
            armed.clause.frame != frame)
            continue;
        ++injectedCounter(armed.clause.cls);
        sim::warn("fault run.kill: dying after frame %llu",
                  static_cast<unsigned long long>(frame));
        std::raise(SIGKILL);
    }
}

bool
FaultInjector::workerRoll(Armed &armed, FaultClass cls,
                          std::uint64_t shard, std::uint64_t attempt)
{
    const FaultClause &c = armed.clause;
    if (c.cls != cls)
        return false;
    if (c.shard != ~0ULL && c.shard != shard)
        return false;
    if (c.times != ~0ULL && attempt >= c.times)
        return false;
    if (c.probability < 1.0) {
        // Pure function of (seed, shard, attempt) — no RNG stream to
        // advance, so a freshly forked worker rolls the identical
        // outcome for the identical shard attempt.
        const std::uint64_t h = sim::hashMix(c.seed, shard, attempt);
        const double u =
            static_cast<double>(h >> 11) * 0x1.0p-53;
        if (u >= c.probability)
            return false;
    }
    ++injectedCounter(c.cls);
    return true;
}

bool
FaultInjector::killWorker(std::uint64_t shard, std::uint64_t attempt)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Armed &armed : armed_)
        if (workerRoll(armed, FaultClass::WorkerKill, shard, attempt))
            return true;
    return false;
}

bool
FaultInjector::hangWorker(std::uint64_t shard, std::uint64_t attempt)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Armed &armed : armed_)
        if (workerRoll(armed, FaultClass::WorkerHang, shard, attempt))
            return true;
    return false;
}

} // namespace msim::resilience
