#include "serve/service.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>

#include "exec/pool.hh"
#include "obs/stats.hh"
#include "sched/scheduler.hh"
#include "serve/fleet.hh"
#include "serve/protocol.hh"
#include "sim/logging.hh"

namespace msim::serve
{

using resilience::Errc;
using resilience::errorf;
using resilience::Expected;
using util::Json;

namespace
{

/** A request must arrive promptly once its connection is accepted. */
constexpr double kRequestTimeoutMs = 10000.0;

Expected<int>
bindListen(const std::string &path)
{
    if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path))
        return errorf(Errc::BadFormat,
                      "serve: unusable socket path '%s'",
                      path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return errorf(Errc::Io, "serve: socket failed: %s",
                      std::strerror(errno));
    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(fd);
        return errorf(Errc::Io, "serve: bind '%s' failed: %s",
                      path.c_str(), std::strerror(errno));
    }
    // The backlog holds clients between accept rounds; admission
    // control (not the backlog) bounds the actual run queue.
    if (::listen(fd, 16) != 0) {
        ::close(fd);
        return errorf(Errc::Io, "serve: listen failed: %s",
                      std::strerror(errno));
    }
    // Nonblocking, so draining the backlog never stalls the
    // scheduler loop.
    ::fcntl(fd, F_SETFL,
            ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
}

/** Send a terse error/refusal reply; best-effort, then close. */
void
replyAndClose(int fd, const char *status, const std::string &message)
{
    Json reply = Json::object();
    reply.set("type", "campaign_result");
    reply.set("status", status);
    reply.set("message", message);
    (void)writeMessage(fd, reply);
    ::close(fd);
}

/** One admitted request's client connection and isolation state. */
struct PendingRequest
{
    int fd = -1;
    std::unique_ptr<obs::StatsRegistry> registry;
    std::unique_ptr<obs::RunLedger> ledger;
};

} // namespace

int
runService(const ServiceConfig &config)
{
    Expected<int> listenFd = bindListen(config.socketPath);
    if (!listenFd.ok()) {
        sim::warn("%s", listenFd.error().message.c_str());
        return 1;
    }

    const std::size_t workers = std::max<std::size_t>(config.workers, 1);
    Fleet fleet(config.base, workers);
    sched::Scheduler scheduler(config.base, config.scheduler, fleet);

    sim::inform("serve: listening on %s (workers %zu, max inflight %zu)",
                config.socketPath.c_str(), workers,
                scheduler.config().maxInflight);

    std::map<std::size_t, PendingRequest> pending;
    std::size_t admitted = 0;
    std::size_t served = 0;

    auto draining = [&]() {
        return config.maxRequests > 0 &&
               admitted >= config.maxRequests;
    };

    auto handleClient = [&](int client) {
        Expected<Json> request =
            readMessage(client, kRequestTimeoutMs);
        if (!request.ok()) {
            sim::warn("serve: dropping request: %s",
                      request.error().message.c_str());
            replyAndClose(client, "error",
                          request.error().message);
            return;
        }
        // Only campaign requests are served; a frame of any other
        // type is data the service does not act on.
        const Json *type = request->find("type");
        if (const std::string name = type ? type->asString() : "";
            name != "campaign") {
            sim::warn("serve: refusing a request of type '%s'",
                      name.c_str());
            replyAndClose(client, "error",
                          "not a campaign request (type '" + name +
                              "')");
            return;
        }
        if (draining()) {
            // The admission budget is spent; backlogged clients get
            // a clean refusal instead of a hung socket.
            replyAndClose(client, "error", "service shutting down");
            return;
        }

        PendingRequest p;
        p.registry = std::make_unique<obs::StatsRegistry>();
        p.ledger = std::make_unique<obs::RunLedger>();
        {
            Json fields = Json::object();
            fields.set("tool", "serve");
            fields.set("threads", exec::Pool::global().workers());
            fields.set("workers", workers);
            p.ledger->event("run_start", std::move(fields));
        }

        sched::RequestSpec spec;
        if (const Json *benches = request->find("benches");
            benches && benches->isArray())
            for (const Json &alias : benches->items())
                spec.benches.push_back(alias.asString());
        else
            spec.benches = config.base.benches;
        if (const Json *tenant = request->find("tenant");
            tenant && tenant->isString())
            spec.tenant = tenant->asString();
        if (const Json *weight = request->find("weight");
            weight && weight->isNumber())
            spec.weight = weight->asNumber();
        spec.ledger = p.ledger.get();
        spec.registry = p.registry.get();

        Expected<std::size_t> id = scheduler.admit(spec);
        if (!id.ok()) {
            if (id.error().code == Errc::Busy) {
                // Backpressure, not failure: the client retries.
                replyAndClose(client, "rejected",
                              id.error().message);
                return;
            }
            ++admitted; // a served (if failed) request
            Json fields = Json::object();
            fields.set("wall_seconds", 0.0);
            fields.set("status", "failed");
            p.ledger->event("run_end", std::move(fields));
            Json reply = Json::object();
            reply.set("type", "campaign_result");
            reply.set("status", "error");
            reply.set("message", id.error().message);
            reply.set("ledger", p.ledger->serialize());
            (void)writeMessage(client, reply);
            ::close(client);
            ++served;
            sim::inform("serve: request %zu done (error)", served);
            return;
        }
        ++admitted;
        p.fd = client;
        pending.emplace(*id, std::move(p));
    };

    while (!(draining() && pending.empty() && !scheduler.busy())) {
        // Admit whatever the backlog holds, then run one scheduling
        // round. When idle, park in poll() on the listen socket.
        struct pollfd pfd = {*listenFd, POLLIN, 0};
        const int timeout = scheduler.busy() ? 0 : 200;
        const int ready = ::poll(&pfd, 1, timeout);
        if (ready < 0 && errno != EINTR) {
            sim::warn("serve: poll failed: %s",
                      std::strerror(errno));
            break;
        }
        if (ready > 0 && (pfd.revents & POLLIN))
            for (;;) {
                const int client =
                    ::accept(*listenFd, nullptr, nullptr);
                if (client < 0)
                    break;
                handleClient(client);
            }

        for (sched::RequestResult &result : scheduler.step(50)) {
            auto it = pending.find(result.id);
            if (it == pending.end())
                continue;
            PendingRequest &p = it->second;
            {
                Json fields = Json::object();
                fields.set("wall_seconds",
                           result.report.wallSeconds);
                fields.set("status", result.status);
                p.ledger->event("run_end", std::move(fields));
            }
            Json reply = Json::object();
            reply.set("type", "campaign_result");
            reply.set("status", result.status);
            reply.set("report", result.report.toJson());
            reply.set("ledger", p.ledger->serialize());
            if (auto sent = writeMessage(p.fd, reply); !sent.ok())
                sim::warn("serve: reply failed: %s",
                          sent.error().message.c_str());
            ::close(p.fd);
            pending.erase(it);
            ++served;
            sim::inform("serve: request %zu done (%s)", served,
                        result.status.c_str());
        }
    }

    // Final sweep: every client still in the backlog gets a clean
    // "shutting down" refusal before the socket disappears.
    for (;;) {
        const int client = ::accept(*listenFd, nullptr, nullptr);
        if (client < 0)
            break;
        Expected<Json> request = readMessage(client, 1000.0);
        if (request.ok())
            replyAndClose(client, "error", "service shutting down");
        else
            ::close(client);
    }
    fleet.shutdown();
    ::close(*listenFd);
    ::unlink(config.socketPath.c_str());
    return 0;
}

Expected<Json>
submit(const std::string &socketPath, const Json &request)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return errorf(Errc::Io, "submit: socket failed: %s",
                      std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        return errorf(Errc::Io, "submit: connect '%s' failed: %s",
                      socketPath.c_str(), std::strerror(err));
    }
    if (auto sent = writeMessage(fd, request); !sent.ok()) {
        ::close(fd);
        return sent.error();
    }
    Expected<Json> reply = readMessage(fd, -1.0);
    ::close(fd);
    return reply;
}

} // namespace msim::serve
