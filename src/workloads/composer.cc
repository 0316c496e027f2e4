#include "workloads/composer.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace msim::workloads
{

namespace
{

/** Hash a handful of ids into a deterministic value. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
    std::uint64_t d = 0)
{
    return sim::hashMix(sim::hashMix(a, b, c), d);
}

double
u01(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

float
wrap01(float v)
{
    v = v - std::floor(v);
    return v;
}

/**
 * Regular grid mesh over [-0.5, 0.5]², n×n cells, two triangles per
 * cell. 3D worlds get a deterministic per-vertex height field so
 * rotated instances expose depth variation.
 */
gfx::Mesh
gridMesh(std::uint32_t id, std::uint32_t n, bool is3d,
         std::uint64_t variantSeed)
{
    gfx::Mesh mesh;
    mesh.id = id;
    n = std::max<std::uint32_t>(n, 1);
    for (std::uint32_t j = 0; j <= n; ++j) {
        for (std::uint32_t i = 0; i <= n; ++i) {
            const float u = static_cast<float>(i) / n;
            const float v = static_cast<float>(j) / n;
            float z = 0.0f;
            if (is3d)
                z = static_cast<float>(
                        u01(mix(variantSeed, i, j, 0x3d)) - 0.5) *
                    0.3f;
            mesh.positions.push_back({u - 0.5f, v - 0.5f, z});
            mesh.uvs.push_back({u, v});
        }
    }
    const std::uint32_t stride = n + 1;
    for (std::uint32_t j = 0; j < n; ++j) {
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t a = j * stride + i;
            const std::uint32_t b = a + 1;
            const std::uint32_t c = a + stride;
            const std::uint32_t d = c + 1;
            mesh.indices.insert(mesh.indices.end(), {a, b, c});
            mesh.indices.insert(mesh.indices.end(), {b, d, c});
        }
    }
    return mesh;
}

int
placementRank(Placement p)
{
    switch (p) {
      case Placement::Backdrop: return 0;
      case Placement::Sprite: return 1;
      case Placement::Overlay: return 2;
    }
    return 1;
}

} // namespace

/** One segment's back-to-front draw order, instance counts and lifetime. */
struct SceneComposer::SegmentPlan
{
    struct Layer
    {
        std::size_t group;
        std::uint32_t count;
    };
    std::vector<Layer> layers;
    std::size_t draws = 0; // summed counts: every frame's exact size
    std::uint32_t lifetime = 0;
};

/**
 * The memo of one (group, instance) pair. Its draws' parameters depend
 * on h = mix(ih, 0x22, epoch) alone, so they are derived once per
 * lifetime epoch, not once per frame. The phase depends on the
 * lifetime, which each segment's churn sets.
 */
struct SceneComposer::Instance
{
    std::uint64_t ih = 0;
    std::size_t phase = 0;
    std::size_t epoch = std::numeric_limits<std::size_t>::max();
    // Derived from the epoch's h (depth from the slot for backdrops
    // and overlays). A sprite's x/y are its position at t = 0.
    std::uint32_t meshId = 0;
    float scale = 0.0f;
    float x = 0.0f;
    float y = 0.0f;
    float vx = 0.0f;
    float vy = 0.0f;
    float depth = 0.0f;
    float spin = 0.0f; // turns per lifetime: rotation = 2π·t·spin

    void respawn(std::size_t e, const GroupSpec &group, std::size_t g,
                 std::uint32_t i, std::uint32_t nworlds);
};

void
SceneComposer::Instance::respawn(std::size_t e, const GroupSpec &group,
                                 std::size_t g, std::uint32_t i,
                                 std::uint32_t nworlds)
{
    epoch = e;
    const std::uint64_t h = mix(ih, 0x22, epoch);
    meshId = static_cast<std::uint32_t>(g * nworlds + h % nworlds);
    scale = group.sizeMin + static_cast<float>(u01(mix(h, 0x33))) *
                                (group.sizeMax - group.sizeMin);
    switch (group.placement) {
      case Placement::Backdrop:
        // Screen-filling layer with a slow per-epoch drift.
        x = 0.5f + 0.1f * (static_cast<float>(u01(mix(h, 0x44))) - 0.5f);
        y = 0.5f + 0.1f * (static_cast<float>(u01(mix(h, 0x55))) - 0.5f);
        depth = 0.98f - 0.005f * static_cast<float>(i);
        break;
      case Placement::Sprite:
        x = static_cast<float>(u01(mix(h, 0x66)));
        y = static_cast<float>(u01(mix(h, 0x77)));
        vx = (static_cast<float>(u01(mix(h, 0x88))) - 0.5f) * 0.8f;
        vy = (static_cast<float>(u01(mix(h, 0x99))) - 0.5f) * 0.8f;
        depth = 0.2f + 0.6f * static_cast<float>(u01(mix(h, 0xaa)));
        spin = static_cast<float>(u01(mix(h, 0xbb))) - 0.5f;
        break;
      case Placement::Overlay:
        depth = 0.02f + 0.005f * static_cast<float>(i);
        break;
    }
}

SceneComposer::SceneComposer(const GameSpec &spec, double scale)
    : spec_(spec), scale_(scale)
{
    if (spec_.groups.empty())
        sim::fatal("GameSpec '%s' has no groups", spec_.name.c_str());
    if (spec_.segments.empty())
        sim::fatal("GameSpec '%s' has no segments",
                   spec_.name.c_str());
    if (spec_.script.empty())
        for (std::size_t i = 0; i < spec_.segments.size(); ++i)
            spec_.script.push_back(i);
    for (std::size_t seg : spec_.script)
        if (seg >= spec_.segments.size())
            sim::fatal("script references segment %zu of %zu", seg,
                       spec_.segments.size());
    for (const SegmentSpec &seg : spec_.segments)
        for (std::size_t g : seg.groups)
            if (g >= spec_.groups.size())
                sim::fatal("segment '%s' references group %zu of %zu",
                           seg.name.c_str(), g, spec_.groups.size());

    // A DrawCall's ids are 16 bits wide: refuse, before any draw is
    // built, a spec with a table they cannot address.
    const struct
    {
        const char *table;
        std::uint64_t entries;
        std::size_t max;
    } tables[] = {
        {"shader",
         std::uint64_t{std::max<std::uint32_t>(spec_.numVertexShaders, 1)} +
             std::max<std::uint32_t>(spec_.numFragmentShaders, 1),
         gfx::DrawCall::kMaxShaders},
        {"mesh",
         spec_.groups.size() *
             std::uint64_t{std::max<std::uint32_t>(spec_.numWorlds, 1)},
         gfx::DrawCall::kMaxMeshes},
        {"texture", std::max<std::uint32_t>(spec_.numTextures, 1),
         gfx::DrawCall::kMaxTextures},
    };
    for (const auto &t : tables)
        if (t.entries > t.max)
            sim::fatal("GameSpec '%s': its %s table holds %llu entries, "
                       "more than the %zu a 16-bit draw id addresses",
                       spec_.name.c_str(), t.table,
                       static_cast<unsigned long long>(t.entries), t.max);
}

gfx::SceneTrace
SceneComposer::compose() const
{
    gfx::SceneTrace scene;
    scene.name = spec_.name;

    const std::uint32_t nvs = std::max<std::uint32_t>(
        spec_.numVertexShaders, 1);
    const std::uint32_t nfs = std::max<std::uint32_t>(
        spec_.numFragmentShaders, 1);
    const std::uint32_t ntex = std::max<std::uint32_t>(
        spec_.numTextures, 1);
    const std::uint32_t nworlds = std::max<std::uint32_t>(
        spec_.numWorlds, 1);

    // Shader roster: vertex programs first (column order), then
    // fragment programs with hash-varied instruction mixes so the
    // characteristic vectors have per-column texture.
    for (std::uint32_t i = 0; i < nvs; ++i) {
        gfx::ShaderProgram s;
        s.id = static_cast<std::uint32_t>(scene.shaders.size());
        s.kind = gfx::ShaderKind::Vertex;
        const std::uint64_t h = mix(spec_.seed, 0x7653, i);
        s.aluInstructions = 6 + static_cast<std::uint32_t>(h % 10) +
                            (spec_.is3d ? 6 : 0);
        s.textureSamples = 0;
        scene.shaders.push_back(s);
    }
    for (std::uint32_t j = 0; j < nfs; ++j) {
        gfx::ShaderProgram s;
        s.id = static_cast<std::uint32_t>(scene.shaders.size());
        s.kind = gfx::ShaderKind::Fragment;
        const std::uint64_t h = mix(spec_.seed, 0x6673, j);
        s.aluInstructions = 4 + static_cast<std::uint32_t>(h % 12);
        // Roughly a third of the programs are untextured fills.
        s.textureSamples =
            (j % 3 == 1) ? 0 : 1 + static_cast<std::uint32_t>(h % 3);
        switch ((h >> 8) % 3) {
          case 0: s.filter = gfx::TextureFilter::Linear; break;
          case 1: s.filter = gfx::TextureFilter::Bilinear; break;
          default: s.filter = gfx::TextureFilter::Trilinear; break;
        }
        scene.shaders.push_back(s);
    }

    for (std::uint32_t t = 0; t < ntex; ++t) {
        gfx::Texture tex;
        tex.id = t;
        tex.width = 64u << (t % 3);
        tex.height = 64u << ((t + 1) % 3);
        scene.textures.push_back(tex);
    }

    // One mesh variant per (group, world).
    for (std::size_t g = 0; g < spec_.groups.size(); ++g) {
        const GroupSpec &group = spec_.groups[g];
        for (std::uint32_t w = 0; w < nworlds; ++w) {
            const std::uint32_t id = static_cast<std::uint32_t>(
                g * nworlds + w);
            scene.meshes.push_back(gridMesh(
                id, group.detail, spec_.is3d,
                mix(spec_.seed, 0x6d65, g, w)));
        }
    }

    // Segment schedule. Durations depend only on (seed, ordinal), so
    // the frame→segment mapping is identical for any requested frame
    // count — the prefix-stability guarantee.
    scene.frames.reserve(spec_.frames);
    std::vector<std::vector<Instance>> memo(spec_.groups.size());
    std::size_t ordinal = 0;
    std::size_t begin = 0;
    while (scene.frames.size() < spec_.frames) {
        const std::size_t segIdx =
            spec_.script[ordinal % spec_.script.size()];
        const SegmentSpec &segment = spec_.segments[segIdx];
        const std::uint32_t lo =
            std::max<std::uint32_t>(segment.minFrames, 1);
        const std::uint32_t hi =
            std::max(segment.maxFrames, lo);
        const std::uint64_t h = mix(spec_.seed, 0x5e67, ordinal);
        const std::size_t duration = lo + h % (hi - lo + 1);

        const SegmentPlan plan = planSegment(segment);
        for (const SegmentPlan::Layer &layer : plan.layers) {
            std::vector<Instance> &instances = memo[layer.group];
            for (std::uint32_t i = static_cast<std::uint32_t>(
                     instances.size());
                 i < layer.count; ++i)
                instances.push_back(
                    Instance{mix(spec_.seed, 0x11, layer.group, i)});
            for (std::uint32_t i = 0; i < layer.count; ++i)
                instances[i].phase = instances[i].ih % plan.lifetime;
        }
        for (std::size_t k = 0;
             k < duration && scene.frames.size() < spec_.frames; ++k)
            scene.frames.push_back(composeFrame(begin + k, plan, memo));
        begin += duration;
        ++ordinal;
    }
    return scene;
}

SceneComposer::SegmentPlan
SceneComposer::planSegment(const SegmentSpec &segment) const
{
    SegmentPlan plan;
    // Instances live for a churn-dependent number of frames and
    // respawn with fresh parameters.
    plan.lifetime = static_cast<std::uint32_t>(
        30 + (1.0f - std::clamp(segment.churn, 0.0f, 1.0f)) * 150);

    // Draw groups back-to-front by placement layer, preserving the
    // spec's group order within a layer.
    std::vector<std::size_t> order(segment.groups);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return placementRank(
                                    spec_.groups[a].placement) <
                                placementRank(
                                    spec_.groups[b].placement);
                     });

    const std::uint32_t cap =
        std::max<std::uint32_t>(spec_.numWorlds, 1) *
        std::max<std::uint32_t>(spec_.instancesPerWorld, 1);
    for (std::size_t g : order) {
        const GroupSpec &group = spec_.groups[g];
        // Instance count: intensity interpolates the spec's range,
        // the workload scale knob thins or thickens the population.
        double wanted =
            group.minCount +
            segment.intensity * (group.maxCount - group.minCount);
        if (group.placement == Placement::Sprite)
            wanted *= scale_;
        const std::uint32_t count = std::clamp<std::uint32_t>(
            static_cast<std::uint32_t>(std::lround(wanted)), 1, cap);
        plan.layers.push_back(SegmentPlan::Layer{g, count});
        plan.draws += count;
    }
    return plan;
}

gfx::FrameTrace
SceneComposer::composeFrame(std::size_t f, const SegmentPlan &plan,
                            std::vector<std::vector<Instance>> &memo) const
{
    const std::uint32_t nvs = std::max<std::uint32_t>(
        spec_.numVertexShaders, 1);
    const std::uint32_t nfs = std::max<std::uint32_t>(
        spec_.numFragmentShaders, 1);
    const std::uint32_t ntex = std::max<std::uint32_t>(
        spec_.numTextures, 1);
    const std::uint32_t nworlds = std::max<std::uint32_t>(
        spec_.numWorlds, 1);

    gfx::FrameTrace frame;
    frame.index = static_cast<std::uint32_t>(f);
    frame.draws.reserve(plan.draws);

    for (const SegmentPlan::Layer &layer : plan.layers) {
        const std::size_t g = layer.group;
        const GroupSpec &group = spec_.groups[g];
        gfx::DrawCall draw;
        draw.vsId = static_cast<std::uint16_t>(group.vs % nvs);
        draw.fsId = static_cast<std::uint16_t>(nvs + group.fs % nfs);
        draw.textureId = static_cast<std::int16_t>(group.tex % ntex);
        draw.transparent = group.transparent;

        for (std::uint32_t i = 0; i < layer.count; ++i) {
            // Everything derives from the absolute frame index, never
            // from composition order; the memo only skips re-deriving
            // what the instance's epoch fixes.
            Instance &inst = memo[g][i];
            const std::size_t epoch = (f + inst.phase) / plan.lifetime;
            const std::size_t life = (f + inst.phase) % plan.lifetime;
            const float t = static_cast<float>(life) /
                            static_cast<float>(plan.lifetime);
            if (inst.epoch != epoch)
                inst.respawn(epoch, group, g, i, nworlds);

            draw.meshId = static_cast<std::uint16_t>(inst.meshId);
            draw.scale = inst.scale;
            draw.depth = inst.depth;
            switch (group.placement) {
              case Placement::Backdrop:
                draw.x = inst.x;
                draw.y = inst.y;
                draw.rotation = 0.0f;
                break;
              case Placement::Sprite:
                draw.x = wrap01(inst.x + inst.vx * t);
                draw.y = wrap01(inst.y + inst.vy * t);
                draw.rotation = t * 6.2831853f * inst.spin;
                break;
              case Placement::Overlay:
                // HUD slots pinned along the top edge.
                draw.x = (static_cast<float>(i) + 0.5f) /
                         static_cast<float>(layer.count);
                draw.y = 0.08f;
                draw.rotation = 0.0f;
                break;
            }
            frame.draws.push_back(draw);
        }
    }
    return frame;
}

} // namespace msim::workloads
