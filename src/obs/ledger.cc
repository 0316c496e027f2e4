#include "obs/ledger.hh"

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "obs/profile.hh"
#include "resilience/artifact.hh"
#include "sim/logging.hh"

namespace msim::obs
{

using resilience::Errc;
using resilience::errorf;
using resilience::Expected;
using util::Json;

namespace
{

// Per-event field tables. `Str`/`Num` require that JSON kind; `Count`
// requires a number that Json::countAt() accepts; `StrArr` is an array
// of strings; `StrMap`/`NumMap` are open objects whose *values* must
// be strings/numbers (the keys are free — env vars, metric names,
// domain names).
enum class FieldKind { Str, Num, Count, StrArr, StrMap, NumMap };

struct FieldSpec
{
    const char *name;
    FieldKind kind;
    bool required;
};

struct EventSpec
{
    const char *type;
    const FieldSpec *fields;
    std::size_t count;
};

constexpr FieldSpec kRunStartFields[] = {
    {"tool", FieldKind::Str, true},
    {"threads", FieldKind::Count, true},
    {"workers", FieldKind::Num, false},
    {"frame_limit", FieldKind::Num, false},
    {"scale", FieldKind::Num, false},
    {"gpu_profile", FieldKind::Str, false},
    {"benches", FieldKind::StrArr, false},
    {"fingerprint", FieldKind::Str, false},
    {"env", FieldKind::StrMap, false},
    {"mem_mode", FieldKind::Str, false},
    // No longer written; kept so that older ledgers still validate.
    {"mode", FieldKind::Str, false},
};

constexpr FieldSpec kCacheFields[] = {
    {"bench", FieldKind::Str, true},
    {"status", FieldKind::Str, true},
    {"resumed_frames", FieldKind::Num, false},
};

constexpr FieldSpec kPhaseFields[] = {
    {"name", FieldKind::Str, true},
    {"seconds", FieldKind::Num, true},
    {"entries", FieldKind::Num, false},
};

constexpr FieldSpec kBenchFields[] = {
    {"alias", FieldKind::Str, true},
    {"frames", FieldKind::Num, true},
    {"chosen_k", FieldKind::Num, false},
    {"representatives", FieldKind::Num, false},
    {"reduction", FieldKind::Num, false},
    {"wall_seconds", FieldKind::Num, false},
    {"cache_status", FieldKind::Str, false},
    {"error", FieldKind::NumMap, false},
    {"mem_mode", FieldKind::Str, false},
};

constexpr FieldSpec kAttribFields[] = {
    {"domains", FieldKind::NumMap, true},
    {"coverage", FieldKind::Num, false},
    {"wall_seconds", FieldKind::Num, false},
};

constexpr FieldSpec kMetricsFields[] = {
    {"values", FieldKind::NumMap, true},
};

constexpr FieldSpec kRunEndFields[] = {
    {"wall_seconds", FieldKind::Num, true},
    {"status", FieldKind::Str, true},
};

constexpr FieldSpec kWorkerSpawnFields[] = {
    {"worker", FieldKind::Num, true},
    {"pid", FieldKind::Num, true},
    {"shard", FieldKind::Num, false},
};

constexpr FieldSpec kWorkerExitFields[] = {
    {"worker", FieldKind::Num, true},
    {"pid", FieldKind::Num, true},
    {"status", FieldKind::Str, true},
    {"reason", FieldKind::Str, false},
    {"shard", FieldKind::Num, false},
};

constexpr FieldSpec kShardRetryFields[] = {
    {"shard", FieldKind::Num, true},
    {"bench", FieldKind::Str, true},
    {"attempt", FieldKind::Num, true},
    {"reason", FieldKind::Str, true},
    {"backoff_ms", FieldKind::Num, false},
};

constexpr FieldSpec kShardQuarantineFields[] = {
    {"shard", FieldKind::Num, true},
    {"bench", FieldKind::Str, true},
    {"attempts", FieldKind::Num, true},
    {"reason", FieldKind::Str, true},
};

constexpr FieldSpec kShardCoalesceFields[] = {
    {"bench", FieldKind::Str, true},
    {"request", FieldKind::Num, true},
    {"producer", FieldKind::Num, true},
    {"shards_avoided", FieldKind::Num, true},
};

constexpr FieldSpec kLeaseResolvedFields[] = {
    {"bench", FieldKind::Str, true},
    {"request", FieldKind::Num, true},
    {"source", FieldKind::Str, true},
};

constexpr FieldSpec kRequestAdmitFields[] = {
    {"request", FieldKind::Num, true},
    {"tenant", FieldKind::Str, true},
    {"policy", FieldKind::Str, true},
    {"benches", FieldKind::StrArr, false},
    {"queue_depth", FieldKind::Num, false},
};

constexpr FieldSpec kSchedDispatchFields[] = {
    {"shard", FieldKind::Num, true},
    {"request", FieldKind::Num, true},
    {"worker", FieldKind::Num, true},
    {"bench", FieldKind::Str, true},
    {"policy", FieldKind::Str, false},
    {"remaining", FieldKind::Num, false},
};

constexpr FieldSpec kRequestDoneFields[] = {
    {"request", FieldKind::Num, true},
    {"status", FieldKind::Str, true},
    {"queue_wait_seconds", FieldKind::Num, true},
    {"service_seconds", FieldKind::Num, true},
    {"shards", FieldKind::Num, false},
    {"quarantined", FieldKind::Num, false},
};

constexpr EventSpec kEventSpecs[] = {
    {"run_start", kRunStartFields, std::size(kRunStartFields)},
    {"cache", kCacheFields, std::size(kCacheFields)},
    {"phase", kPhaseFields, std::size(kPhaseFields)},
    {"bench", kBenchFields, std::size(kBenchFields)},
    {"attrib", kAttribFields, std::size(kAttribFields)},
    {"metrics", kMetricsFields, std::size(kMetricsFields)},
    {"run_end", kRunEndFields, std::size(kRunEndFields)},
    {"worker_spawn", kWorkerSpawnFields,
     std::size(kWorkerSpawnFields)},
    {"worker_exit", kWorkerExitFields, std::size(kWorkerExitFields)},
    {"shard_retry", kShardRetryFields, std::size(kShardRetryFields)},
    {"shard_quarantine", kShardQuarantineFields,
     std::size(kShardQuarantineFields)},
    {"shard_coalesce", kShardCoalesceFields,
     std::size(kShardCoalesceFields)},
    {"lease_resolved", kLeaseResolvedFields,
     std::size(kLeaseResolvedFields)},
    {"request_admit", kRequestAdmitFields,
     std::size(kRequestAdmitFields)},
    {"sched_dispatch", kSchedDispatchFields,
     std::size(kSchedDispatchFields)},
    {"request_done", kRequestDoneFields,
     std::size(kRequestDoneFields)},
};

const EventSpec *
findSpec(const std::string &type)
{
    for (const EventSpec &s : kEventSpecs)
        if (type == s.type)
            return &s;
    return nullptr;
}

/** Check field @p spec of @p event, which holds it. */
Expected<void>
checkField(const std::string &type, const FieldSpec &spec,
           const Json &event)
{
    const Json &value = *event.find(spec.name);
    switch (spec.kind) {
      case FieldKind::Str:
        if (!value.isString())
            return errorf(Errc::BadFormat,
                          "%s.%s: expected string", type.c_str(),
                          spec.name);
        break;
      case FieldKind::Num:
      case FieldKind::Count:
        if (!value.isNumber())
            return errorf(Errc::BadFormat,
                          "%s.%s: expected number", type.c_str(),
                          spec.name);
        if (spec.kind == FieldKind::Count)
            if (auto count = event.countAt(spec.name); !count.ok())
                return errorf(Errc::BadFormat, "%s.%s: %s",
                              type.c_str(), spec.name,
                              count.error().message.c_str());
        break;
      case FieldKind::StrArr:
        if (!value.isArray())
            return errorf(Errc::BadFormat, "%s.%s: expected array",
                          type.c_str(), spec.name);
        for (const Json &item : value.items())
            if (!item.isString())
                return errorf(Errc::BadFormat,
                              "%s.%s: expected string elements",
                              type.c_str(), spec.name);
        break;
      case FieldKind::StrMap:
      case FieldKind::NumMap:
        if (!value.isObject())
            return errorf(Errc::BadFormat, "%s.%s: expected object",
                          type.c_str(), spec.name);
        for (const auto &[key, v] : value.members()) {
            const bool ok = spec.kind == FieldKind::StrMap
                                ? v.isString()
                                : v.isNumber();
            if (!ok)
                return errorf(
                    Errc::BadFormat, "%s.%s.%s: expected %s",
                    type.c_str(), spec.name, key.c_str(),
                    spec.kind == FieldKind::StrMap ? "string"
                                                   : "number");
        }
        break;
    }
    return {};
}

} // namespace

RunLedger::RunLedger() : start_(wallSeconds()) {}

void
RunLedger::event(const std::string &type, Json fields)
{
    Json ev = Json::object();
    ev.set("schema", kSchema);
    ev.set("seq", static_cast<std::size_t>(seq_++));
    ev.set("event", type);
    ev.set("t", wallSeconds() - start_);
    if (fields.isObject())
        for (const auto &[key, value] : fields.members())
            ev.set(key, value);
    const Expected<void> valid = validateEvent(ev);
    if (!valid.ok())
        sim::fatal("run ledger: invalid '%s' event: %s",
                   type.c_str(), valid.error().message.c_str());
    events_.push_back(std::move(ev));
}

std::string
RunLedger::serialize() const
{
    std::string out;
    for (const Json &ev : events_) {
        out += ev.dump(0);
        out += '\n';
    }
    return out;
}

Expected<void>
RunLedger::save(const std::string &path) const
{
    return resilience::atomicWriteFile(path, serialize());
}

Expected<std::vector<Json>>
RunLedger::parse(const std::string &text)
{
    std::vector<Json> events;
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++lineNo;
        if (line.empty())
            continue;
        Expected<Json> parsed = Json::parse(line);
        if (!parsed.ok())
            return errorf(Errc::BadFormat, "ledger line %zu: %s",
                          lineNo, parsed.error().message.c_str());
        Expected<void> valid = validateEvent(*parsed);
        if (!valid.ok())
            return errorf(Errc::BadFormat, "ledger line %zu: %s",
                          lineNo, valid.error().message.c_str());
        events.push_back(std::move(*parsed));
    }
    if (events.empty())
        return errorf(Errc::Truncated, "ledger has no events");
    return events;
}

Expected<std::vector<Json>>
RunLedger::load(const std::string &path)
{
    Expected<std::string> text =
        resilience::readFileToString(path);
    if (!text.ok())
        return text.error();
    return parse(*text);
}

Expected<void>
RunLedger::validateEvent(const Json &ev)
{
    if (!ev.isObject())
        return errorf(Errc::BadFormat, "event is not an object");
    const Json *schema = ev.find("schema");
    if (!schema || !schema->isString())
        return errorf(Errc::BadFormat, "missing schema tag");
    if (schema->asString() != kSchema)
        return errorf(Errc::BadVersion, "schema '%s' != '%s'",
                      schema->asString().c_str(), kSchema);
    const Json *type = ev.find("event");
    if (!type || !type->isString())
        return errorf(Errc::BadFormat, "missing event type");
    const EventSpec *spec = findSpec(type->asString());
    if (!spec)
        return errorf(Errc::BadFormat, "unknown event type '%s'",
                      type->asString().c_str());
    const Json *seq = ev.find("seq");
    if (!seq || !seq->isNumber())
        return errorf(Errc::BadFormat, "%s: missing seq",
                      spec->type);
    const Json *t = ev.find("t");
    if (!t || !t->isNumber())
        return errorf(Errc::BadFormat, "%s: missing t", spec->type);

    for (std::size_t i = 0; i < spec->count; ++i) {
        const FieldSpec &f = spec->fields[i];
        if (!ev.find(f.name)) {
            if (f.required)
                return errorf(Errc::BadFormat,
                              "%s: missing required field '%s'",
                              spec->type, f.name);
            continue;
        }
        Expected<void> fieldOk = checkField(spec->type, f, ev);
        if (!fieldOk.ok())
            return fieldOk;
    }
    for (const auto &[key, value] : ev.members()) {
        (void)value;
        if (key == "schema" || key == "seq" || key == "event" ||
            key == "t")
            continue;
        const bool known =
            std::any_of(spec->fields, spec->fields + spec->count,
                        [&key = key](const FieldSpec &f) {
                            return key == f.name;
                        });
        if (!known)
            return errorf(Errc::BadFormat,
                          "%s: unknown field '%s'", spec->type,
                          key.c_str());
    }
    return {};
}

} // namespace msim::obs
