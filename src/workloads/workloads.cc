#include "workloads/workloads.hh"

#include "sim/logging.hh"
#include "util/env.hh"

namespace msim::workloads
{

namespace
{

GameSpec
aspSpec()
{
    GameSpec s;
    s.name = "asp";
    s.title = "Angry Birds Space";
    s.downloadsMillions = "100+";
    s.is3d = false;
    s.frames = 4000;
    s.seed = 0xA5B0;
    s.numVertexShaders = 2;
    s.numFragmentShaders = 5;
    s.numTextures = 6;
    s.numWorlds = 3;
    s.instancesPerWorld = 10;
    s.groups = {
        {"space_bg", Placement::Backdrop, 3, 0, 0, 0, false, 1, 1, 1.1f,
         1.1f},
        {"planets", Placement::Sprite, 3, 1, 1, 1, false, 2, 5, 0.25f,
         0.55f},
        {"debris", Placement::Sprite, 2, 1, 2, 2, false, 4, 16, 0.05f,
         0.15f},
        {"birds", Placement::Sprite, 2, 0, 3, 3, true, 1, 6, 0.08f,
         0.16f},
        {"trails", Placement::Sprite, 1, 0, 4, 4, true, 2, 20, 0.03f,
         0.08f},
        {"hud", Placement::Overlay, 1, 1, 2, 5, true, 3, 4, 0.07f,
         0.12f},
    };
    s.segments = {
        {"aim", {0, 1, 2, 3, 5}, 60, 120, 0.7f, 0.2f},
        {"flight", {0, 1, 2, 3, 4, 5}, 40, 80, 1.4f, 0.6f},
        {"collapse", {0, 1, 2, 4, 5}, 30, 60, 2.0f, 0.8f},
        {"menu", {0, 1, 5}, 40, 70, 0.5f, 0.1f},
    };
    s.script = {3, 0, 1, 0, 1, 2, 0, 1, 1, 2, 3, 0, 1, 2};
    return s;
}

GameSpec
bbr1Spec()
{
    GameSpec s;
    s.name = "bbr1";
    s.title = "Beach Buggy Racing";
    s.downloadsMillions = "100+";
    s.is3d = true;
    s.frames = 2500;
    s.seed = 0xBB21;
    s.numVertexShaders = 4;
    s.numFragmentShaders = 6;
    s.numTextures = 8;
    s.numWorlds = 3;
    s.instancesPerWorld = 8;
    s.groups = {
        {"skybox", Placement::Backdrop, 2, 0, 0, 0, false, 1, 1, 1.1f,
         1.1f},
        {"track", Placement::Backdrop, 5, 1, 1, 1, false, 1, 2, 1.0f,
         1.1f},
        {"scenery", Placement::Sprite, 3, 2, 2, 2, false, 4, 14, 0.15f,
         0.45f},
        {"karts", Placement::Sprite, 4, 3, 3, 3, false, 3, 8, 0.12f,
         0.25f},
        {"particles", Placement::Sprite, 1, 2, 4, 4, true, 2, 22,
         0.03f, 0.1f},
        {"hud", Placement::Overlay, 1, 0, 5, 5, true, 3, 5, 0.06f,
         0.12f},
    };
    s.segments = {
        {"cruise", {0, 1, 2, 3, 5}, 50, 100, 1.0f, 0.3f},
        {"pack_race", {0, 1, 2, 3, 4, 5}, 40, 80, 1.6f, 0.5f},
        {"powerup", {0, 1, 2, 3, 4, 5}, 25, 50, 2.2f, 0.8f},
        {"results", {0, 1, 3, 5}, 30, 60, 0.6f, 0.1f},
    };
    s.script = {0, 1, 0, 2, 1, 1, 2, 0, 1, 3};
    return s;
}

GameSpec
bbr2Spec()
{
    GameSpec s = bbr1Spec();
    s.name = "bbr2";
    s.title = "Beach Buggy Racing 2";
    s.downloadsMillions = "50+";
    s.frames = 4000;
    s.seed = 0xBB22;
    // The sequel spends more shader programs on richer surfaces.
    s.numFragmentShaders = 8;
    s.numTextures = 10;
    s.groups[1].detail = 6; // denser track mesh
    s.groups[3].maxCount = 10;
    s.groups.push_back({"weather", Placement::Sprite, 1, 2, 6, 6, true,
                        2, 18, 0.05f, 0.14f});
    s.segments.push_back(
        {"storm", {0, 1, 2, 3, 4, 5, 6}, 30, 60, 2.0f, 0.7f});
    s.script = {0, 1, 0, 2, 4, 1, 2, 0, 4, 1, 3};
    return s;
}

GameSpec
hcrSpec()
{
    GameSpec s;
    s.name = "hcr";
    s.title = "Hill Climb Racing";
    s.downloadsMillions = "500+";
    s.is3d = false;
    s.frames = 2000;
    s.seed = 0x4C12;
    s.numVertexShaders = 2;
    s.numFragmentShaders = 4;
    s.numTextures = 5;
    s.numWorlds = 4;
    s.instancesPerWorld = 8;
    s.groups = {
        {"sky", Placement::Backdrop, 1, 0, 0, 0, false, 1, 1, 1.1f,
         1.1f},
        {"terrain", Placement::Backdrop, 6, 1, 1, 1, false, 1, 2, 1.0f,
         1.1f},
        {"vehicle", Placement::Sprite, 3, 1, 2, 2, false, 1, 2, 0.15f,
         0.2f},
        {"props", Placement::Sprite, 2, 0, 1, 3, false, 3, 10, 0.08f,
         0.2f},
        {"coins", Placement::Sprite, 1, 0, 3, 4, true, 2, 12, 0.03f,
         0.06f},
        {"hud", Placement::Overlay, 1, 1, 3, 0, true, 2, 4, 0.07f,
         0.12f},
    };
    s.segments = {
        {"drive", {0, 1, 2, 3, 4, 5}, 60, 120, 1.0f, 0.4f},
        {"airtime", {0, 1, 2, 4, 5}, 20, 40, 1.5f, 0.6f},
        {"garage", {0, 2, 5}, 40, 80, 0.5f, 0.1f},
    };
    s.script = {2, 0, 1, 0, 0, 1, 0, 2};
    return s;
}

GameSpec
hwhSpec()
{
    GameSpec s;
    s.name = "hwh";
    s.title = "Hot Wheels: Race Off";
    s.downloadsMillions = "100+";
    s.is3d = true;
    s.frames = 4500;
    s.seed = 0x4877;
    s.numVertexShaders = 3;
    s.numFragmentShaders = 7;
    s.numTextures = 8;
    s.numWorlds = 2;
    s.instancesPerWorld = 9;
    s.groups = {
        {"skybox", Placement::Backdrop, 2, 0, 0, 0, false, 1, 1, 1.1f,
         1.1f},
        {"track_loop", Placement::Backdrop, 5, 1, 1, 1, false, 1, 2,
         1.0f, 1.1f},
        {"cars", Placement::Sprite, 4, 2, 2, 2, false, 1, 4, 0.12f,
         0.22f},
        {"boost_fx", Placement::Sprite, 1, 2, 3, 3, true, 2, 20, 0.04f,
         0.12f},
        {"obstacles", Placement::Sprite, 3, 1, 4, 4, false, 3, 12,
         0.08f, 0.2f},
        {"sparks", Placement::Sprite, 1, 0, 5, 5, true, 2, 24, 0.02f,
         0.07f},
        {"hud", Placement::Overlay, 1, 0, 6, 6, true, 3, 5, 0.06f,
         0.12f},
    };
    s.segments = {
        {"run_up", {0, 1, 2, 4, 6}, 50, 90, 0.9f, 0.3f},
        {"stunt", {0, 1, 2, 3, 5, 6}, 30, 60, 1.8f, 0.7f},
        {"crash", {0, 1, 2, 4, 5, 6}, 20, 40, 2.4f, 0.9f},
        {"replay", {0, 1, 2, 6}, 30, 60, 0.6f, 0.1f},
    };
    s.script = {0, 1, 0, 1, 2, 3, 0, 1, 1, 2, 0, 3};
    return s;
}

GameSpec
jjoSpec()
{
    GameSpec s;
    s.name = "jjo";
    s.title = "Jetpack Joyride";
    s.downloadsMillions = "100+";
    s.is3d = false;
    s.frames = 3500;
    s.seed = 0x1130;
    s.numVertexShaders = 2;
    s.numFragmentShaders = 5;
    s.numTextures = 6;
    s.numWorlds = 3;
    s.instancesPerWorld = 10;
    s.groups = {
        {"lab_bg", Placement::Backdrop, 2, 0, 0, 0, false, 1, 2, 1.0f,
         1.1f},
        {"barry", Placement::Sprite, 2, 1, 1, 1, false, 1, 1, 0.12f,
         0.15f},
        {"zappers", Placement::Sprite, 1, 0, 2, 2, true, 2, 12, 0.06f,
         0.18f},
        {"missiles", Placement::Sprite, 1, 1, 3, 3, false, 1, 10,
         0.04f, 0.1f},
        {"coins", Placement::Sprite, 1, 0, 4, 4, true, 4, 24, 0.03f,
         0.05f},
        {"hud", Placement::Overlay, 1, 1, 2, 5, true, 2, 3, 0.07f,
         0.12f},
    };
    s.segments = {
        {"glide", {0, 1, 2, 4, 5}, 50, 100, 0.9f, 0.4f},
        {"barrage", {0, 1, 2, 3, 4, 5}, 30, 60, 1.8f, 0.7f},
        {"vehicle", {0, 1, 4, 5}, 40, 70, 1.1f, 0.3f},
        {"gameover", {0, 1, 5}, 20, 40, 0.4f, 0.1f},
    };
    s.script = {0, 1, 0, 2, 0, 1, 1, 2, 0, 1, 3};
    return s;
}

GameSpec
pvzSpec()
{
    GameSpec s;
    s.name = "pvz";
    s.title = "Plants vs. Zombies";
    s.downloadsMillions = "100+";
    s.is3d = false;
    s.frames = 5500;
    s.seed = 0x9052;
    s.numVertexShaders = 2;
    s.numFragmentShaders = 6;
    s.numTextures = 8;
    s.numWorlds = 2;
    s.instancesPerWorld = 12;
    s.groups = {
        {"lawn", Placement::Backdrop, 3, 0, 0, 0, false, 1, 1, 1.1f,
         1.1f},
        {"plants", Placement::Sprite, 2, 1, 1, 1, false, 4, 20, 0.06f,
         0.12f},
        {"zombies", Placement::Sprite, 2, 1, 2, 2, false, 1, 16, 0.08f,
         0.14f},
        {"projectiles", Placement::Sprite, 1, 0, 3, 3, true, 2, 24,
         0.02f, 0.05f},
        {"sun_tokens", Placement::Sprite, 1, 0, 4, 4, true, 1, 8,
         0.04f, 0.07f},
        {"hud", Placement::Overlay, 1, 1, 5, 5, true, 4, 6, 0.06f,
         0.11f},
    };
    s.segments = {
        {"build", {0, 1, 4, 5}, 60, 110, 0.8f, 0.2f},
        {"wave", {0, 1, 2, 3, 4, 5}, 40, 80, 1.5f, 0.4f},
        {"final_wave", {0, 1, 2, 3, 5}, 30, 60, 2.3f, 0.6f},
        {"victory", {0, 1, 5}, 20, 40, 0.5f, 0.1f},
    };
    s.script = {0, 1, 0, 1, 1, 2, 3, 0, 1, 2, 0, 1, 2, 3};
    return s;
}

GameSpec
spdSpec()
{
    GameSpec s;
    s.name = "spd";
    s.title = "Sonic Dash";
    s.downloadsMillions = "500+";
    s.is3d = true;
    s.frames = 5500;
    s.seed = 0x50D4;
    s.numVertexShaders = 3;
    s.numFragmentShaders = 6;
    s.numTextures = 7;
    s.numWorlds = 3;
    s.instancesPerWorld = 8;
    s.groups = {
        {"skyline", Placement::Backdrop, 2, 0, 0, 0, false, 1, 1, 1.1f,
         1.1f},
        {"runway", Placement::Backdrop, 5, 1, 1, 1, false, 1, 2, 1.0f,
         1.1f},
        {"sonic", Placement::Sprite, 3, 2, 2, 2, false, 1, 1, 0.12f,
         0.15f},
        {"rings", Placement::Sprite, 1, 0, 3, 3, true, 4, 20, 0.03f,
         0.05f},
        {"badniks", Placement::Sprite, 2, 2, 4, 4, false, 1, 10, 0.07f,
         0.15f},
        {"dash_fx", Placement::Sprite, 1, 1, 5, 5, true, 2, 16, 0.04f,
         0.1f},
        {"hud", Placement::Overlay, 1, 0, 3, 6, true, 2, 4, 0.06f,
         0.11f},
    };
    s.segments = {
        {"run", {0, 1, 2, 3, 4, 6}, 50, 100, 1.0f, 0.4f},
        {"dash", {0, 1, 2, 3, 5, 6}, 25, 50, 1.9f, 0.7f},
        {"boss", {0, 1, 2, 4, 5, 6}, 40, 70, 2.2f, 0.5f},
        {"springboard", {0, 1, 2, 3, 6}, 15, 30, 1.3f, 0.8f},
    };
    s.script = {0, 1, 0, 3, 0, 1, 2, 0, 3, 1, 0, 2};
    return s;
}

} // namespace

const std::vector<std::string> &
benchmarkNames()
{
    static const std::vector<std::string> names = {
        "asp", "bbr1", "bbr2", "hcr", "hwh", "jjo", "pvz", "spd",
    };
    return names;
}

namespace
{

/** Classic dynamic-programming edit distance, for did-you-mean. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

resilience::Expected<GameSpec>
findBenchmarkSpec(const std::string &alias)
{
    if (alias == "asp")
        return aspSpec();
    if (alias == "bbr1")
        return bbr1Spec();
    if (alias == "bbr2")
        return bbr2Spec();
    if (alias == "hcr")
        return hcrSpec();
    if (alias == "hwh")
        return hwhSpec();
    if (alias == "jjo")
        return jjoSpec();
    if (alias == "pvz")
        return pvzSpec();
    if (alias == "spd")
        return spdSpec();

    std::string closest;
    std::size_t closestDistance = 3; // suggest only near misses
    std::string valid;
    for (const std::string &name : benchmarkNames()) {
        const std::size_t d = editDistance(alias, name);
        if (d < closestDistance) {
            closestDistance = d;
            closest = name;
        }
        if (!valid.empty())
            valid += ' ';
        valid += name;
    }
    std::string message =
        "unknown benchmark alias '" + alias + "'";
    if (!closest.empty())
        message += " (did you mean '" + closest + "'?)";
    message += "; valid aliases: " + valid;
    return resilience::Error{resilience::Errc::UnknownAlias,
                             std::move(message)};
}

GameSpec
benchmarkSpec(const std::string &alias)
{
    auto spec = findBenchmarkSpec(alias);
    if (!spec.ok())
        sim::fatal("%s", spec.error().message.c_str());
    return *spec;
}

resilience::Expected<gfx::SceneTrace>
tryBuildBenchmark(const std::string &alias, double scale,
                  std::size_t frames)
{
    auto spec = findBenchmarkSpec(alias);
    if (!spec.ok())
        return spec.error();
    if (frames != 0 && frames < spec->frames)
        spec->frames = frames;
    return SceneComposer(*spec, scale).compose();
}

gfx::SceneTrace
buildBenchmark(const std::string &alias, double scale,
               std::size_t frames)
{
    GameSpec spec = benchmarkSpec(alias);
    if (frames != 0 && frames < spec.frames)
        spec.frames = frames;
    return SceneComposer(spec, scale).compose();
}

std::size_t
frameLimitFromEnv()
{
    return static_cast<std::size_t>(util::numberFromEnv(
        "MEGSIM_FRAME_LIMIT", util::NumberRule::Whole, 0.0,
        "read as unset"));
}

double
scaleFromEnv()
{
    return util::numberFromEnv("MEGSIM_SCALE", util::NumberRule::Positive,
                               1.0, "read as unset");
}

} // namespace msim::workloads
