#include "gpusim/functional_simulator.hh"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "gpusim/rasterizer.hh"
#include "obs/attrib.hh"

namespace msim::gpusim
{

namespace
{

#if defined(__SSE2__)
/**
 * Row i is all-ones in each lane whose bit is set in i, and count[i]
 * is how many bits are set. The count is a table because the portable
 * build has no POPCNT: a popcount builtin compiles to a libgcc call,
 * and every live XMM register is spilled around it.
 */
struct LaneMasks
{
    alignas(16) std::uint32_t lanes[16][4];
    std::uint8_t count[16];
};

constexpr LaneMasks
makeLaneMasks()
{
    LaneMasks t{};
    for (unsigned i = 0; i < 16; ++i)
        for (unsigned s = 0; s < 4; ++s) {
            t.lanes[i][s] = (i >> s) & 1u ? 0xFFFFFFFFu : 0u;
            t.count[i] += (i >> s) & 1u;
        }
    return t;
}

constexpr LaneMasks kLaneMasks = makeLaneMasks();
#endif

} // namespace

FunctionalSimulator::FunctionalSimulator(const GpuConfig &config,
                                         const SceneBinding &binding)
    : config_(config), geometry_(config, binding),
      depth_(static_cast<std::size_t>(config.screenWidth / 2) *
             (config.screenHeight / 2))
{
    const gfx::SceneTrace &scene = binding.scene();
    shaderColumn_.resize(scene.shaders.size(), 0);
    for (const gfx::ShaderProgram &s : scene.shaders) {
        if (s.kind == gfx::ShaderKind::Vertex)
            shaderColumn_[s.id] =
                static_cast<std::uint32_t>(numVs_++);
        else
            shaderColumn_[s.id] =
                static_cast<std::uint32_t>(numFs_++);
    }
}

FrameActivity
FunctionalSimulator::simulate(const gfx::FrameTrace &frame)
{
    {
        obs::AttribScope geomScope(obs::HostDomain::Geometry);
        geometry_.processInto(frame, ir_);
    }
    return simulate(ir_);
}

FrameActivity
FunctionalSimulator::simulate(const GeometryIR &ir)
{
    // The functional walk is coverage rasterization + depth test.
    obs::AttribScope rasterScope(obs::HostDomain::Raster);
    FrameActivity act;
    act.frameIndex = ir.frameIndex;
    act.vsCounts.assign(numVs_, 0);
    act.fsCounts.assign(numFs_, 0);

    std::fill(depth_.begin(), depth_.end(),
              QuadDepth{{1.0f, 1.0f, 1.0f, 1.0f}});
    const std::size_t quadsPerRow = config_.screenWidth / 2;
    const util::BBox2i screen{0, 0,
                              static_cast<int>(config_.screenWidth),
                              static_cast<int>(config_.screenHeight)};

    for (const DrawIR &draw : ir.draws) {
        act.verticesShaded += draw.vertexCount;
        act.vsCounts[shaderColumn_[draw.vsId]] += draw.vertexCount;
        act.primitives += draw.triangles.size();

        // Blended draws are shaded but never write depth.
        const bool opaque = !draw.transparent;
        std::uint64_t shaded = 0;
        for (const ScreenTriangle &tri : draw.triangles) {
            rasterizeTriangleInTile(
                tri, screen, [&](const QuadFragment &quad) {
                    // A quad's samples are distinct pixels, so one
                    // compare per quad decides what four in-order
                    // per-sample compares would.
                    QuadDepth &q =
                        depth_[static_cast<std::size_t>(quad.y >> 1) *
                                   quadsPerRow +
                               static_cast<std::size_t>(quad.x >> 1)];
#if defined(__SSE2__)
                    const __m128 z = _mm_loadu_ps(quad.z);
                    const __m128 d = _mm_load_ps(q.d);
                    // z <= d passes; a NaN z fails.
                    const unsigned pass =
                        static_cast<unsigned>(
                            _mm_movemask_ps(_mm_cmple_ps(z, d))) &
                        quad.mask;
                    shaded += kLaneMasks.count[pass];
                    if (opaque) {
                        // Select-store: a failing lane writes its own
                        // bits back.
                        const __m128 sel = _mm_castsi128_ps(
                            _mm_load_si128(reinterpret_cast<const __m128i *>(
                                kLaneMasks.lanes[pass])));
                        _mm_store_ps(q.d,
                                     _mm_or_ps(_mm_and_ps(sel, z),
                                               _mm_andnot_ps(sel, d)));
                    }
#else
                    for (int s = 0; s < 4; ++s) {
                        if (!(quad.mask & (1 << s)) ||
                            !(quad.z[s] <= q.d[s]))
                            continue;
                        ++shaded;
                        if (opaque)
                            q.d[s] = quad.z[s];
                    }
#endif
                });
        }
        act.fragmentsShaded += shaded;
        act.fsCounts[shaderColumn_[draw.fsId]] += shaded;
    }
    return act;
}

} // namespace msim::gpusim
