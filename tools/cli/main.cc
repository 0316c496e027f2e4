/**
 * @file
 * megsim-cli's command line is two tables. kOptions has a row per
 * option: its name, the kind of value it takes and the Options field it
 * sets. kCommands has a row per command form: the options it reads and
 * the function that runs it. The parser refuses, before any work, an
 * option the command does not read (naming the option and the commands
 * that read it) and a value not of its kind, and the usage text is
 * printed from the same rows. Exit codes: cli.hh.
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cli.hh"
#include "exec/pool.hh"
#include "obs/attrib.hh"
#include "obs/timeline.hh"
#include "util/env.hh"
#include "workloads/workloads.hh"

namespace msim::cli
{
namespace
{

/** How an option's value is read. No value may be empty. */
enum class Kind {
    Text,     // one word
    List,     // comma-separated names
    Whole,    // a whole number >= 0
    Count,    // a whole number >= 1
    Positive, // a finite number > 0
    Range,    // a frame N or a range A:B with A < B
    Pair,     // two words
    Switch,   // no value
};

struct Option
{
    const char *name;
    Kind kind;
    const char *value; // the value's name in the usage text
    std::variant<std::string Options::*,
                 std::vector<std::string> Options::*,
                 std::size_t Options::*, double Options::*,
                 Frames Options::*, std::array<std::string, 2> Options::*,
                 bool Options::*>
        field;
};

const Option kOptions[] = {
    {"--bench", Kind::Text, "ALIAS", &Options::bench},
    {"--benches", Kind::List, "A,B,C", &Options::benches},
    {"--frame", Kind::Whole, "N", &Options::frame},
    {"--frames", Kind::Range, "A:B", &Options::frames},
    {"--filter", Kind::Text, "GLOB", &Options::filter},
    {"--out", Kind::Text, "PATH", &Options::out},
    {"--csv", Kind::Text, "PATH", &Options::csv},
    {"--check", Kind::Text, "THRESHOLDS.json", &Options::check},
    {"--diff", Kind::Pair, "A.json B.json", &Options::diff},
    {"--ledger", Kind::Text, "PATH", &Options::ledger},
    {"--timeline", Kind::Text, "PATH", &Options::timeline},
    {"--validate", Kind::Text, "PATH", &Options::validate},
    {"--attrib", Kind::Switch, "", &Options::attrib},
    {"--cache-dir", Kind::Text, "DIR", &Options::cacheDir},
    {"--socket", Kind::Text, "PATH", &Options::socket},
    {"--max-requests", Kind::Whole, "N", &Options::maxRequests},
    {"--max-inflight", Kind::Count, "N", &Options::maxInflight},
    {"--workers", Kind::Whole, "N", &Options::workers},
    {"--tenant", Kind::Text, "NAME", &Options::tenant},
    {"--weight", Kind::Positive, "W", &Options::weight},
    {"--scale", Kind::Positive, "S", &Options::scale},
    {"--baseline", Kind::Switch, "", &Options::baseline},
    {"--threads", Kind::Count, "N", &Options::threads},
};

/**
 * One form of a command: campaign has two, the second for --diff,
 * which reads nothing else. A command line takes the form whose
 * required option it gives, else its command's first form.
 */
struct Command
{
    const char *name;
    const char *needs; // the option this form requires, or nullptr
    std::vector<std::string_view> reads; // the others it reads
    int (*run)(const Options &);
};

const Command kCommands[] = {
    {"stats", nullptr,
     {"--bench", "--frame", "--filter", "--scale", "--baseline"},
     runStats},
    {"trace", nullptr,
     {"--bench", "--frames", "--out", "--csv", "--scale", "--baseline"},
     runTrace},
    {"resume", nullptr,
     {"--bench", "--cache-dir", "--scale", "--baseline", "--threads"},
     runResume},
    {"verify-cache", nullptr,
     {"--bench", "--cache-dir", "--scale", "--baseline"}, runVerifyCache},
    {"campaign", nullptr,
     {"--benches", "--out", "--check", "--cache-dir", "--ledger",
      "--workers", "--attrib", "--timeline", "--scale", "--threads"},
     runCampaign},
    {"campaign", "--diff", {}, runCampaignDiff},
    {"serve", "--socket",
     {"--max-requests", "--workers", "--max-inflight", "--benches",
      "--cache-dir", "--timeline", "--scale", "--threads"},
     runServe},
    {"submit", "--socket",
     {"--benches", "--tenant", "--weight", "--out", "--ledger"},
     runSubmit},
    {"ledger", "--validate", {}, runLedgerValidate},
};

const Option *
findOption(std::string_view name)
{
    for (const Option &o : kOptions)
        if (name == o.name)
            return &o;
    return nullptr;
}

bool
reads(const Command &command, std::string_view name)
{
    return (command.needs && name == command.needs) ||
           std::find(command.reads.begin(), command.reads.end(), name) !=
               command.reads.end();
}

/** Name the commands that read @p o, which @p command does not. */
void
refuse(const Command &command, const Option &o)
{
    std::vector<std::string_view> readers;
    for (const Command &c : kCommands)
        if (reads(c, o.name) && (readers.empty() || readers.back() != c.name))
            readers.push_back(c.name);
    if (command.needs && std::find(readers.begin(), readers.end(),
                                   command.name) != readers.end()) {
        std::fprintf(stderr, "%s is not read by %s %s\n", o.name,
                     command.name, command.needs);
        return;
    }
    std::string list;
    for (std::size_t i = 0; i < readers.size(); ++i) {
        list += i == 0 ? "" : i + 1 == readers.size() ? " and " : ", ";
        list += readers[i];
    }
    std::fprintf(stderr, "%s is read by %s only\n", o.name, list.c_str());
}

/** "--bench ALIAS", "--attrib"; "[--bench ALIAS]" if @p optional. */
std::string
synopsis(const Option &o, bool optional = false)
{
    std::string text = optional ? "[" : "";
    text += o.name;
    if (*o.value)
        text.append(" ").append(o.value);
    return optional ? text + "]" : text;
}

util::NumberRule
numberRule(Kind kind)
{
    return kind == Kind::Whole   ? util::NumberRule::Whole
           : kind == Kind::Count ? util::NumberRule::Count
                                 : util::NumberRule::Positive;
}

/** What @p o's value must be, for the error naming it. */
const char *
describe(const Option &o)
{
    switch (o.kind) {
      case Kind::Whole:
      case Kind::Count:
      case Kind::Positive: return util::describe(numberRule(o.kind));
      case Kind::List: return "a comma-separated list of names";
      case Kind::Range:
        return "a frame N or a range A:B of whole numbers with A < B";
      default: return o.value;
    }
}

/** Store @p o's value, the words at @p words; false if malformed. */
bool
store(const Option &o, char **words, Options &opt)
{
    switch (o.kind) {
      case Kind::Text:
        opt.*std::get<std::string Options::*>(o.field) = words[0];
        return true;
      case Kind::List: {
        auto &names = opt.*std::get<std::vector<std::string> Options::*>(
                                o.field);
        names.clear();
        std::istringstream in(words[0]);
        for (std::string name; std::getline(in, name, ',');)
            names.push_back(name);
        // getline keeps an empty name inside but drops a trailing one.
        return std::string_view(words[0]).back() != ',' &&
               std::count(names.begin(), names.end(), "") == 0;
      }
      case Kind::Whole:
      case Kind::Count:
      case Kind::Positive: {
        const std::optional<double> value =
            util::parseNumber(words[0], numberRule(o.kind));
        if (value && o.kind == Kind::Positive)
            opt.*std::get<double Options::*>(o.field) = *value;
        else if (value)
            opt.*std::get<std::size_t Options::*>(o.field) =
                static_cast<std::size_t>(*value);
        return value.has_value();
      }
      case Kind::Range: { // "N" is frame N, "A:B" frames A to B-1
        const std::string range = words[0];
        const std::size_t colon = range.find(':');
        const bool single = colon == std::string::npos;
        const std::optional<double> a = util::parseNumber(
            range.substr(0, colon).c_str(), util::NumberRule::Whole);
        const std::optional<double> b =
            single ? a
                   : util::parseNumber(range.c_str() + colon + 1,
                                       util::NumberRule::Whole);
        if (!a || !b || (!single && *b <= *a))
            return false;
        opt.*std::get<Frames Options::*>(o.field) = {
            static_cast<std::size_t>(*a),
            static_cast<std::size_t>(*b) + (single ? 1 : 0)};
        return true;
      }
      case Kind::Pair:
        opt.*std::get<std::array<std::string, 2> Options::*>(o.field) = {
            words[0], words[1]};
        return true;
      case Kind::Switch:
        opt.*std::get<bool Options::*>(o.field) = true;
        return true;
    }
    return false;
}

/**
 * The command form argv asks for, with its options stored in @p opt;
 * nullptr after naming what is wrong.
 */
const Command *
parse(int argc, char **argv, Options &opt)
{
    if (argc < 2)
        return nullptr;
    const std::vector<std::string_view> args(argv + 2, argv + argc);
    auto given = [&](const char *name) {
        return name && std::find(args.begin(), args.end(), name) !=
                           args.end();
    };
    const Command *command = nullptr;
    for (const Command &form : kCommands)
        if (form.name == std::string_view(argv[1]) &&
            (!command || (given(form.needs) && !given(command->needs))))
            command = &form;
    if (!command) {
        std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
        return nullptr;
    }
    for (int i = 2; i < argc; ++i) {
        const Option *o = findOption(argv[i]);
        if (!o) {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return nullptr;
        }
        if (!reads(*command, o->name)) {
            refuse(*command, *o);
            return nullptr;
        }
        const int words = o->kind == Kind::Switch ? 0
                          : o->kind == Kind::Pair ? 2
                                                  : 1;
        if (i + words >= argc ||
            std::any_of(argv + i + 1, argv + i + 1 + words,
                        [](const char *word) { return !*word; }) ||
            !store(*o, argv + i + 1, opt)) {
            std::fprintf(stderr, "%s needs %s\n", o->name, describe(*o));
            return nullptr;
        }
        i += words;
    }
    if (command->needs && !given(command->needs)) {
        std::fprintf(stderr, "%s: %s is required\n", command->name,
                     synopsis(*findOption(command->needs)).c_str());
        return nullptr;
    }
    return command;
}

/** Every command form with the options it reads, from the tables. */
int
usage(const char *argv0)
{
    for (const Command &command : kCommands) {
        std::string line = std::string(&command == kCommands ? "usage: "
                                                             : "       ") +
                           argv0 + " " + command.name;
        auto add = [&](const std::string &piece) {
            if (line.size() + 1 + piece.size() > 79) {
                std::fprintf(stderr, "%s\n", line.c_str());
                line = std::string(11, ' ');
            }
            line.append(" ").append(piece);
        };
        if (command.needs)
            add(synopsis(*findOption(command.needs)));
        for (std::string_view name : command.reads)
            add(synopsis(*findOption(name), true));
        std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::fprintf(stderr, "benches:");
    for (const std::string &alias : workloads::benchmarkNames())
        std::fprintf(stderr, " %s", alias.c_str());
    std::fprintf(stderr, "\n");
    return kExitUsage;
}

} // namespace
} // namespace msim::cli

int
main(int argc, char **argv)
{
    using namespace msim;
    cli::Options opt;
    const cli::Command *command = cli::parse(argc, argv, opt);
    if (!command)
        return cli::usage(argv[0]);
    if (opt.threads)
        exec::Pool::setConfiguredThreads(opt.threads);
    // Single-threaded setup: the telemetry flags must be decided
    // before the pool spins up and the run starts timing.
    if (opt.attrib)
        obs::setHostAttribEnabled(true);
    if (!opt.timeline.empty())
        obs::setTimelineEnabled(true);
    return command->run(opt);
}
