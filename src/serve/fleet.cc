#include "serve/fleet.hh"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "obs/profile.hh"
#include "serve/worker.hh"
#include "sim/logging.hh"

namespace msim::serve
{

using resilience::Errc;
using resilience::Expected;
using util::Json;

namespace
{

std::string
waitStatusString(int status)
{
    char buf[32];
    if (WIFEXITED(status))
        std::snprintf(buf, sizeof(buf), "exit %d",
                      WEXITSTATUS(status));
    else if (WIFSIGNALED(status))
        std::snprintf(buf, sizeof(buf), "signal %d",
                      WTERMSIG(status));
    else
        std::snprintf(buf, sizeof(buf), "status %d", status);
    return buf;
}

} // namespace

Fleet::Fleet(batch::CampaignConfig workerConfig, std::size_t size)
    : config_(std::move(workerConfig)),
      slots_(std::max<std::size_t>(size, 1)),
      ambient_(obs::processRegistry())
{
    // A worker that dies leaves a closed pipe; writing to it must fail
    // with Errc::Io, not kill this process. Forked workers inherit it.
    std::signal(SIGPIPE, SIG_IGN);
}

Fleet::~Fleet()
{
    shutdown();
}

std::size_t
Fleet::busyCount() const
{
    std::size_t busy = 0;
    for (const Slot &slot : slots_)
        if (slot.alive && slot.busy)
            ++busy;
    return busy;
}

bool
Fleet::hasIdle() const
{
    return std::any_of(slots_.begin(), slots_.end(),
                       [](const Slot &slot) {
                           return slot.alive && !slot.busy;
                       });
}

void
Fleet::spawnSlot(std::size_t slot)
{
    int req[2];
    int rep[2];
    if (::pipe(req) != 0 || ::pipe(rep) != 0)
        sim::fatal("serve: cannot create worker pipes: %s",
                   std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0)
        sim::fatal("serve: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: drop every parent-side descriptor (including the
        // pipes of other workers inherited across the fork — a held
        // write end would mask their EOF-based shutdown), then serve
        // shards until the request pipe closes. _exit keeps parent
        // atexit handlers and sanitizer leak reports out of the
        // child.
        ::close(req[1]);
        ::close(rep[0]);
        for (const Slot &other : slots_) {
            if (other.reqFd >= 0)
                ::close(other.reqFd);
            if (other.repFd >= 0)
                ::close(other.repFd);
        }
        ::_exit(workerMain(req[0], rep[1], config_));
    }
    ::close(req[0]);
    ::close(rep[1]);
    Slot &worker = slots_[slot];
    worker.pid = pid;
    worker.reqFd = req[1];
    worker.repFd = rep[0];
    worker.alive = true;
    worker.busy = false;
    ++ambient_.scalar("serve.workers_spawned",
                      "worker processes forked");
    Json fields = Json::object();
    fields.set("worker", slot);
    fields.set("pid", static_cast<std::size_t>(pid));
    pendingLedger_.emplace_back("worker_spawn", std::move(fields));
}

void
Fleet::reapSlot(std::size_t slot, const char *reason)
{
    Slot &worker = slots_[slot];
    if (!worker.alive)
        return;
    ::close(worker.reqFd);
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    ::close(worker.repFd);
    const std::string statusText = waitStatusString(status);
    // Exit 0 is a worker leaving on its shutdown signal; anything else
    // (a crash, a hang, a corrupt reply) is a fault.
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    sim::logMessage(clean ? sim::LogLevel::Info : sim::LogLevel::Warn,
                    "serve: worker %zu (pid %d) left: %s (%s)", slot,
                    static_cast<int>(worker.pid), statusText.c_str(),
                    reason);
    ++ambient_.scalar("serve.worker_exits",
                      "worker processes reaped");
    Json fields = Json::object();
    fields.set("worker", slot);
    fields.set("pid", static_cast<std::size_t>(worker.pid));
    fields.set("status", statusText);
    fields.set("reason", reason);
    if (worker.busy)
        fields.set("shard", worker.shard);
    pendingLedger_.emplace_back("worker_exit", std::move(fields));
    worker.alive = false;
    worker.busy = false;
    worker.reqFd = -1;
    worker.repFd = -1;
}

void
Fleet::ensureWorkers(std::size_t outstanding)
{
    const std::size_t want = std::min(slots_.size(), outstanding);
    std::size_t alive = 0;
    for (const Slot &slot : slots_)
        if (slot.alive)
            ++alive;
    for (std::size_t i = 0; i < slots_.size() && alive < want; ++i)
        if (!slots_[i].alive) {
            spawnSlot(i);
            ++alive;
        }
}

bool
Fleet::dispatch(const ShardSpec &spec, double deadlineSeconds,
                std::size_t *slot)
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &worker = slots_[i];
        if (!worker.alive || worker.busy)
            continue;
        if (!writeMessage(worker.reqFd, shardRequest(spec)).ok()) {
            // The worker died before taking the request; the shard
            // was never attempted, so no retry counts — try the next
            // idle slot.
            reapSlot(i, "crash");
            continue;
        }
        worker.busy = true;
        worker.shard = spec.id;
        worker.deadline = obs::wallSeconds() + deadlineSeconds;
        if (slot)
            *slot = i;
        return true;
    }
    return false;
}

std::vector<Fleet::Event>
Fleet::poll(int timeoutMs)
{
    std::vector<Event> events;
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> map;
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].alive && slots_[i].busy) {
            fds.push_back({slots_[i].repFd, POLLIN, 0});
            map.push_back(i);
        }
    if (fds.empty())
        return events;
    const int ready = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()),
                             timeoutMs);
    if (ready < 0) {
        if (errno != EINTR)
            sim::warn("serve: fleet poll failed: %s",
                      std::strerror(errno));
        return events;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
        const std::size_t w = map[i];
        Slot &worker = slots_[w];
        if (!worker.alive || !worker.busy)
            continue;
        if ((fds[i].revents & (POLLIN | POLLHUP)) == 0) {
            // No reply yet — enforce the shard deadline.
            if (obs::wallSeconds() > worker.deadline) {
                Event ev;
                ev.kind = EventKind::Hang;
                ev.slot = w;
                ev.shard = worker.shard;
                ev.reason = "shard deadline exceeded";
                ::kill(worker.pid, SIGKILL);
                reapSlot(w, "hang");
                events.push_back(std::move(ev));
            }
            continue;
        }

        const double left =
            std::max(0.05, worker.deadline - obs::wallSeconds());
        Expected<Json> reply =
            readMessage(worker.repFd, left * 1000.0);
        if (!reply.ok()) {
            Event ev;
            ev.slot = w;
            ev.shard = worker.shard;
            ev.reason = reply.error().message;
            const Errc code = reply.error().code;
            if (code == Errc::Truncated) {
                // The worker died mid-shard.
                ev.kind = EventKind::Crash;
                reapSlot(w, "crash");
            } else if (code == Errc::FrameTimeout) {
                ev.kind = EventKind::Hang;
                ::kill(worker.pid, SIGKILL);
                reapSlot(w, "hang");
            } else {
                // Checksum/format/io damage: the stream is unusable,
                // so the worker is too.
                ev.kind = EventKind::CorruptReply;
                ::kill(worker.pid, SIGKILL);
                reapSlot(w, "corrupt-reply");
            }
            events.push_back(std::move(ev));
            continue;
        }

        worker.busy = false;
        Event ev;
        ev.kind = EventKind::Reply;
        ev.slot = w;
        ev.shard = worker.shard;
        ev.reply = std::move(*reply);
        events.push_back(std::move(ev));
    }
    return events;
}

void
Fleet::shutdown()
{
    for (std::size_t i = 0; i < slots_.size(); ++i)
        reapSlot(i, "shutdown");
}

std::vector<std::pair<std::string, Json>>
Fleet::drainLedgerEvents()
{
    std::vector<std::pair<std::string, Json>> out;
    out.swap(pendingLedger_);
    return out;
}

} // namespace msim::serve
