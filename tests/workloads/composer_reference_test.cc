/**
 * Reference equivalence of scene composition: SceneComposer::compose()
 * must reproduce, field for field, the per-frame composer kept here as
 * the specification. The spec sorts each frame's groups, counts their
 * instances and re-derives every instance's parameters from its epoch
 * hash on every frame, growing each frame's draw list as it goes. The
 * composer plans each segment once, derives an instance's parameters
 * once per lifetime epoch and sizes each frame's draw list exactly. The
 * inputs target what that memo could get wrong: epoch boundaries (a
 * memo that ignores the epoch), one instance index in several groups (a
 * memo shared across groups), segments whose churn gives an instance
 * another lifetime and phase, counts that grow and shrink between
 * segments (scale 0.5 and 2.0), a re-seeded spec, prefixes that end
 * inside a segment, and a hand-made spec with one-frame segments, a
 * group listed twice and an empty script — every game at full length.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::workloads;

namespace
{

std::uint64_t
refMix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
       std::uint64_t d = 0)
{
    return sim::hashMix(sim::hashMix(a, b, c), d);
}

double
refU01(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

float
refWrap01(float v)
{
    return v - std::floor(v);
}

int
refRank(Placement p)
{
    switch (p) {
      case Placement::Backdrop: return 0;
      case Placement::Sprite: return 1;
      case Placement::Overlay: return 2;
    }
    return 1;
}

/** The specification of frame @p f: everything re-derived per frame. */
gfx::FrameTrace
referenceFrame(const GameSpec &spec, double scale, std::size_t f,
               const SegmentSpec &segment)
{
    const std::uint32_t nvs =
        std::max<std::uint32_t>(spec.numVertexShaders, 1);
    const std::uint32_t nfs =
        std::max<std::uint32_t>(spec.numFragmentShaders, 1);
    const std::uint32_t ntex = std::max<std::uint32_t>(spec.numTextures, 1);
    const std::uint32_t nworlds = std::max<std::uint32_t>(spec.numWorlds, 1);

    gfx::FrameTrace frame;
    frame.index = static_cast<std::uint32_t>(f);

    std::vector<std::size_t> order(segment.groups);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return refRank(spec.groups[a].placement) <
                                refRank(spec.groups[b].placement);
                     });

    for (std::size_t g : order) {
        const GroupSpec &group = spec.groups[g];
        double wanted = group.minCount +
                        segment.intensity * (group.maxCount - group.minCount);
        if (group.placement == Placement::Sprite)
            wanted *= scale;
        const std::uint32_t cap =
            nworlds * std::max<std::uint32_t>(spec.instancesPerWorld, 1);
        const std::uint32_t count = std::clamp<std::uint32_t>(
            static_cast<std::uint32_t>(std::lround(wanted)), 1, cap);
        const std::uint32_t lifetime = static_cast<std::uint32_t>(
            30 + (1.0f - std::clamp(segment.churn, 0.0f, 1.0f)) * 150);

        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint64_t ih = refMix(spec.seed, 0x11, g, i);
            const std::size_t phase = ih % lifetime;
            const std::size_t epoch = (f + phase) / lifetime;
            const std::size_t life = (f + phase) % lifetime;
            const float t =
                static_cast<float>(life) / static_cast<float>(lifetime);
            const std::uint64_t h = refMix(ih, 0x22, epoch);

            gfx::DrawCall draw;
            draw.meshId =
                static_cast<std::uint32_t>(g * nworlds + h % nworlds);
            draw.vsId = group.vs % nvs;
            draw.fsId = nvs + group.fs % nfs;
            draw.textureId = static_cast<std::int32_t>(group.tex % ntex);
            draw.transparent = group.transparent;
            draw.scale = group.sizeMin +
                         static_cast<float>(refU01(refMix(h, 0x33))) *
                             (group.sizeMax - group.sizeMin);
            switch (group.placement) {
              case Placement::Backdrop:
                draw.x = 0.5f +
                         0.1f * (static_cast<float>(refU01(refMix(h, 0x44))) -
                                 0.5f);
                draw.y = 0.5f +
                         0.1f * (static_cast<float>(refU01(refMix(h, 0x55))) -
                                 0.5f);
                draw.depth = 0.98f - 0.005f * static_cast<float>(i);
                draw.rotation = 0.0f;
                break;
              case Placement::Sprite: {
                const float x0 = static_cast<float>(refU01(refMix(h, 0x66)));
                const float y0 = static_cast<float>(refU01(refMix(h, 0x77)));
                const float vx =
                    (static_cast<float>(refU01(refMix(h, 0x88))) - 0.5f) *
                    0.8f;
                const float vy =
                    (static_cast<float>(refU01(refMix(h, 0x99))) - 0.5f) *
                    0.8f;
                draw.x = refWrap01(x0 + vx * t);
                draw.y = refWrap01(y0 + vy * t);
                draw.depth =
                    0.2f + 0.6f * static_cast<float>(refU01(refMix(h, 0xaa)));
                draw.rotation =
                    t * 6.2831853f *
                    (static_cast<float>(refU01(refMix(h, 0xbb))) - 0.5f);
                break;
              }
              case Placement::Overlay:
                draw.x = (static_cast<float>(i) + 0.5f) /
                         static_cast<float>(count);
                draw.y = 0.08f;
                draw.depth = 0.02f + 0.005f * static_cast<float>(i);
                draw.rotation = 0.0f;
                break;
            }
            frame.draws.push_back(draw);
        }
    }
    return frame;
}

/** The specification's frames of @p spec at @p scale. */
std::vector<gfx::FrameTrace>
referenceFrames(GameSpec spec, double scale)
{
    if (spec.script.empty())
        for (std::size_t i = 0; i < spec.segments.size(); ++i)
            spec.script.push_back(i);
    std::vector<gfx::FrameTrace> frames;
    std::size_t ordinal = 0;
    std::size_t begin = 0;
    while (frames.size() < spec.frames) {
        const SegmentSpec &segment =
            spec.segments[spec.script[ordinal % spec.script.size()]];
        const std::uint32_t lo = std::max<std::uint32_t>(segment.minFrames, 1);
        const std::uint32_t hi = std::max(segment.maxFrames, lo);
        const std::size_t duration =
            lo + refMix(spec.seed, 0x5e67, ordinal) % (hi - lo + 1);
        for (std::size_t k = 0; k < duration && frames.size() < spec.frames;
             ++k)
            frames.push_back(referenceFrame(spec, scale, begin + k, segment));
        begin += duration;
        ++ordinal;
    }
    return frames;
}

bool
sameBits(float a, float b)
{
    return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

bool
sameDraw(const gfx::DrawCall &a, const gfx::DrawCall &b)
{
    return a.meshId == b.meshId && a.vsId == b.vsId && a.fsId == b.fsId &&
           a.textureId == b.textureId && a.transparent == b.transparent &&
           sameBits(a.x, b.x) && sameBits(a.y, b.y) &&
           sameBits(a.depth, b.depth) && sameBits(a.scale, b.scale) &&
           sameBits(a.rotation, b.rotation);
}

/** compose() must equal the spec draw for draw, in exact-size frames. */
void
expectMatchesReference(const GameSpec &spec, double scale,
                       const std::string &what)
{
    const gfx::SceneTrace scene = SceneComposer(spec, scale).compose();
    const std::vector<gfx::FrameTrace> want = referenceFrames(spec, scale);
    ASSERT_EQ(scene.frames.size(), want.size()) << what;
    for (std::size_t f = 0; f < want.size(); ++f) {
        const gfx::FrameTrace &got = scene.frames[f];
        ASSERT_EQ(got.index, want[f].index) << what << " frame " << f;
        ASSERT_EQ(got.draws.size(), want[f].draws.size())
            << what << " frame " << f;
        ASSERT_EQ(got.draws.capacity(), got.draws.size())
            << what << " frame " << f;
        for (std::size_t d = 0; d < got.draws.size(); ++d)
            ASSERT_TRUE(sameDraw(got.draws[d], want[f].draws[d]))
                << what << " frame " << f << " draw " << d;
    }
}

} // namespace

TEST(ComposerReference, EveryGameAtFullLength)
{
    for (const std::string &alias : benchmarkNames())
        expectMatchesReference(benchmarkSpec(alias), 1.0, alias);
}

TEST(ComposerReference, ThinnedAndThickenedPopulations)
{
    for (const std::string &alias : benchmarkNames())
        for (const double scale : {0.5, 2.0})
            expectMatchesReference(benchmarkSpec(alias), scale,
                                   alias + " at scale " +
                                       std::to_string(scale));
}

TEST(ComposerReference, ReseededScenes)
{
    // The held-out scenes of the end-to-end benchmark's --perturb mode.
    for (const std::string &alias : benchmarkNames()) {
        GameSpec spec = benchmarkSpec(alias);
        spec.seed = sim::hashMix(spec.seed, 7);
        expectMatchesReference(spec, 1.0, alias + " re-seeded");
    }
}

TEST(ComposerReference, PrefixesEndingInsideASegment)
{
    for (const std::string &alias : benchmarkNames())
        for (const std::size_t frames : {1, 37, 1001}) {
            GameSpec spec = benchmarkSpec(alias);
            spec.frames = frames;
            expectMatchesReference(spec, 1.0,
                                   alias + " first " +
                                       std::to_string(frames));
        }
}

TEST(ComposerReference, HandMadeSpecEdges)
{
    // One-frame and lifetime-long segments alternating the shortest
    // (churn 1) and longest (churn 0) lifetimes, counts from 1 to the
    // cap, a group listed twice, overlays whose count (and so their x)
    // changes, and an empty script that plays every segment in order.
    GameSpec spec;
    spec.name = "edges";
    spec.frames = 900;
    spec.seed = 0xED6E;
    spec.numWorlds = 2;
    spec.instancesPerWorld = 3;
    spec.groups = {
        {"bg", Placement::Backdrop, 1, 0, 0, 0, false, 1, 2, 1.0f, 1.1f},
        {"a", Placement::Sprite, 1, 1, 1, 1, false, 1, 9, 0.1f, 0.3f},
        {"b", Placement::Sprite, 2, 0, 2, 2, true, 2, 4, 0.05f, 0.1f},
        {"hud", Placement::Overlay, 1, 1, 3, 3, true, 1, 5, 0.05f, 0.1f},
    };
    spec.segments = {
        {"calm", {3, 1, 0}, 1, 1, 0.0f, 0.0f},
        {"busy", {1, 2, 1, 3, 0}, 30, 200, 1.0f, 1.0f},
        {"mid", {2, 3}, 1, 45, 0.5f, 0.4f},
    };
    for (const double scale : {0.5, 1.0, 2.0})
        expectMatchesReference(spec, scale,
                               "edges at scale " + std::to_string(scale));
}
