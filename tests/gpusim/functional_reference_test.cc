/**
 * Reference equivalence of the functional pass: FunctionalSimulator
 * must reproduce, field for field, a plain per-sample loop kept here as
 * the specification. The spec scans every sample of the snapped quad
 * grid of each clipped bounding box with the scalar edge expression
 * ((ax*px + by*py) + cc), with no row termination and no SIMD, and
 * depth-tests each covered sample against a per-pixel {depth, stamp}
 * buffer whose stale stamps read as the clear value 1.0f. The inputs
 * target what the packed scan and the quad-major z buffer could get
 * wrong: equal-depth ties, z beyond and exactly at the clear value,
 * blended draws over and under opaque ones, sub-pixel slivers, every
 * screen edge, a full-screen triangle, both windings, a vertex on a
 * sample centre, seeded random triangles, several frames through one
 * simulator (the per-frame clear), and the first 200 frames of every
 * game.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/functional_simulator.hh"
#include "gpusim/geometry.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/rasterizer.hh"
#include "sim/random.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::gpusim;

namespace
{

/** The specification: per-sample scan and per-pixel stamped z test. */
class ReferenceFunctional
{
  public:
    ReferenceFunctional(const GpuConfig &config,
                        const gfx::SceneTrace &scene)
        : width_(static_cast<int>(config.screenWidth)),
          height_(static_cast<int>(config.screenHeight)),
          depth_(static_cast<std::size_t>(width_) * height_, 0.0f),
          stamp_(depth_.size(), 0)
    {
        column_.resize(scene.shaders.size(), 0);
        for (const gfx::ShaderProgram &s : scene.shaders) {
            if (s.kind == gfx::ShaderKind::Vertex)
                column_[s.id] = numVs_++;
            else
                column_[s.id] = numFs_++;
        }
    }

    FrameActivity
    simulate(const GeometryIR &ir)
    {
        FrameActivity act;
        act.frameIndex = ir.frameIndex;
        act.vsCounts.assign(numVs_, 0);
        act.fsCounts.assign(numFs_, 0);
        ++epoch_;
        const util::BBox2i screen{0, 0, width_, height_};
        for (const DrawIR &draw : ir.draws) {
            act.verticesShaded += draw.vertexCount;
            act.vsCounts[column_[draw.vsId]] += draw.vertexCount;
            act.primitives += draw.triangles.size();
            std::uint64_t shaded = 0;
            for (const ScreenTriangle &tri : draw.triangles)
                shaded += scan(tri, screen, draw.transparent);
            act.fragmentsShaded += shaded;
            act.fsCounts[column_[draw.fsId]] += shaded;
        }
        return act;
    }

  private:
    std::uint64_t
    scan(const ScreenTriangle &tri, const util::BBox2i &screen,
         bool transparent)
    {
        const TriangleSetup s = setupTriangle(tri);
        if (!s.valid)
            return 0;
        util::BBox2i box = s.box.intersect(screen);
        if (box.empty())
            return 0;
        box.x0 &= ~1;
        box.y0 &= ~1;
        std::uint64_t shaded = 0;
        for (int y = box.y0; y < box.y1; y += 2) {
            for (int x = box.x0; x < box.x1; x += 2) {
                for (int lane = 0; lane < 4; ++lane) {
                    const int sx = x + (lane & 1);
                    const int sy = y + (lane >> 1);
                    const float px = static_cast<float>(sx) + 0.5f;
                    const float py = static_cast<float>(sy) + 0.5f;
                    float e[3];
                    for (int i = 0; i < 3; ++i)
                        e[i] = (s.ax[i] * px + s.by[i] * py) + s.cc[i];
                    if (e[0] < 0.0f || e[1] < 0.0f || e[2] < 0.0f)
                        continue;
                    const float w0 = e[1] * s.inv;
                    const float w1 = e[2] * s.inv;
                    const float w2 = e[0] * s.inv;
                    const float z =
                        w0 * tri.z[0] + w1 * tri.z[1] + w2 * tri.z[2];
                    const std::size_t pix =
                        static_cast<std::size_t>(sy) * width_ + sx;
                    const float d =
                        stamp_[pix] == epoch_ ? depth_[pix] : 1.0f;
                    if (!(z <= d))
                        continue;
                    ++shaded;
                    if (!transparent) {
                        depth_[pix] = z;
                        stamp_[pix] = epoch_;
                    }
                }
            }
        }
        return shaded;
    }

    int width_;
    int height_;
    std::vector<float> depth_;
    std::vector<std::uint64_t> stamp_;
    std::uint64_t epoch_ = 0;
    std::vector<std::uint32_t> column_;
    std::uint32_t numVs_ = 0;
    std::uint32_t numFs_ = 0;
};

void
expectSameActivity(const FrameActivity &want, const FrameActivity &got,
                   const std::string &where)
{
    EXPECT_EQ(want.frameIndex, got.frameIndex) << where;
    EXPECT_EQ(want.primitives, got.primitives) << where;
    EXPECT_EQ(want.verticesShaded, got.verticesShaded) << where;
    EXPECT_EQ(want.fragmentsShaded, got.fragmentsShaded) << where;
    EXPECT_EQ(want.vsCounts, got.vsCounts) << where;
    EXPECT_EQ(want.fsCounts, got.fsCounts) << where;
}

ScreenTriangle
triangle(float x0, float y0, float x1, float y1, float x2, float y2,
         float z0, float z1, float z2)
{
    ScreenTriangle t;
    t.v[0] = {x0, y0};
    t.v[1] = {x1, y1};
    t.v[2] = {x2, y2};
    t.z[0] = z0;
    t.z[1] = z1;
    t.z[2] = z2;
    return t;
}

ScreenTriangle
flat(float x0, float y0, float x1, float y1, float x2, float y2, float z)
{
    return triangle(x0, y0, x1, y1, x2, y2, z, z, z);
}

/** The same triangle with the opposite winding. */
ScreenTriangle
reversed(ScreenTriangle t)
{
    std::swap(t.v[1], t.v[2]);
    std::swap(t.z[1], t.z[2]);
    return t;
}

/** Draws cycle through the scene's shaders, so counts span columns. */
struct FrameBuilder
{
    const gfx::SceneTrace &scene;
    GeometryIR ir;
    std::size_t draws = 0;

    void
    add(std::vector<ScreenTriangle> tris, bool transparent)
    {
        const std::vector<std::uint32_t> vs =
            scene.shaderIdsOf(gfx::ShaderKind::Vertex);
        const std::vector<std::uint32_t> fs =
            scene.shaderIdsOf(gfx::ShaderKind::Fragment);
        DrawIR d;
        d.vsId = vs[draws % vs.size()];
        d.fsId = fs[draws % fs.size()];
        d.transparent = transparent;
        d.vertexCount = static_cast<std::uint32_t>(3 * tris.size());
        d.triangles = std::move(tris);
        ir.draws.push_back(std::move(d));
        ++draws;
    }
};

/** Handcrafted frames, one per case, for a W x H screen. */
std::vector<GeometryIR>
handcraftedFrames(const gfx::SceneTrace &scene, float w, float h)
{
    std::vector<GeometryIR> frames;
    auto frame = [&](auto &&build) {
        FrameBuilder b{scene, {}, 0};
        b.ir.frameIndex = static_cast<std::uint32_t>(frames.size());
        build(b);
        frames.push_back(std::move(b.ir));
    };
    const ScreenTriangle quadA = flat(4, 4, 60, 6, 10, 50, 0.4f);
    const ScreenTriangle quadB = flat(60, 6, 58, 52, 10, 50, 0.4f);

    // Equal depth twice: the second draw ties and passes.
    frame([&](FrameBuilder &b) {
        b.add({quadA, quadB}, false);
        b.add({quadA, quadB}, false);
    });
    // Beyond the clear value fails; exactly at it passes.
    frame([&](FrameBuilder &b) {
        b.add({flat(3, 3, 40, 5, 7, 33, 1.5f)}, false);
        b.add({flat(3, 3, 40, 5, 7, 33, 1.0f)}, false);
        b.add({flat(3, 3, 40, 5, 7, 33, 1.0f)}, true);
        b.add({triangle(0, 0, w, 0, 0, h, 0.9f, 1.2f, 1.05f)}, false);
    });
    // Blended over opaque: a farther blend fails, a nearer one passes
    // and writes nothing, so a later opaque draw behind it still
    // passes.
    frame([&](FrameBuilder &b) {
        b.add({flat(10, 10, 70, 12, 14, 60, 0.3f)}, false);
        b.add({flat(8, 8, 72, 10, 12, 62, 0.5f)}, true);
        b.add({flat(8, 8, 72, 10, 12, 62, 0.2f)}, true);
        b.add({flat(9, 9, 71, 11, 13, 61, 0.25f)}, false);
    });
    // Opaque over blended: the blend wrote no depth.
    frame([&](FrameBuilder &b) {
        b.add({flat(10, 10, 70, 12, 14, 60, 0.2f)}, true);
        b.add({flat(8, 8, 72, 10, 12, 62, 0.5f)}, false);
        b.add({flat(8, 8, 72, 10, 12, 62, 0.6f)}, true);
    });
    // Sub-pixel slivers, needles and specks at odd offsets.
    frame([&](FrameBuilder &b) {
        b.add({flat(5.1f, 5.2f, 5.9f, 5.3f, 5.4f, 5.95f, 0.5f),
               flat(10.5f, 10.0f, 10.6f, 10.0f, 10.55f, 40.0f, 0.5f),
               flat(3.0f, 20.25f, 80.0f, 20.75f, 3.0f, 20.6f, 0.5f),
               flat(30.49f, 30.49f, 30.51f, 30.49f, 30.5f, 30.51f, 0.1f),
               flat(1.0f, 1.0f, 90.0f, 2.0f, 179.0f, 3.0f, 0.5f)},
              false);
        b.add({flat(0.0f, 0.0f, 0.4f, 0.0f, 0.0f, 0.4f, 0.3f),
               flat(7.7f, 7.7f, 8.3f, 7.8f, 8.0f, 8.4f, 0.3f)},
              false);
    });
    // Clipped by each screen edge, and by every corner at once.
    frame([&](FrameBuilder &b) {
        b.add({triangle(-20, 10, 15, 20, -5, 40, 0.1f, 0.5f, 0.9f)},
              false);
        b.add({triangle(w - 15, 12, w + 25, 22, w - 3, 45, 0.2f, 0.6f,
                        0.8f)},
              false);
        b.add({triangle(30, -30, 60, 8, 20, 5, 0.3f, 0.4f, 0.5f)}, false);
        b.add({triangle(40, h - 7, 70, h + 30, 25, h + 2, 0.6f, 0.1f,
                        0.3f)},
              true);
        b.add({triangle(-50, -50, 3 * w, -10, -10, 3 * h, 0.7f, 0.7f,
                        0.7f)},
              false);
    });
    // Full screen, then both windings of the same triangles.
    frame([&](FrameBuilder &b) {
        const ScreenTriangle big =
            triangle(0, 0, 2 * w, 0, 0, 2 * h, 0.8f, 0.2f, 0.5f);
        b.add({big}, false);
        b.add({reversed(big)}, false);
        const ScreenTriangle slanted =
            triangle(12.3f, 7.1f, 91.7f, 33.3f, 40.2f, 80.9f, 0.1f, 0.9f,
                     0.4f);
        b.add({slanted}, false);
        b.add({reversed(slanted)}, true);
    });
    // Vertices exactly on sample centres: e = 0 there, so covered.
    frame([&](FrameBuilder &b) {
        b.add({flat(10.5f, 10.5f, 20.5f, 10.5f, 10.5f, 20.5f, 0.5f),
               flat(31.5f, 11.5f, 31.5f, 21.5f, 21.5f, 21.5f, 0.5f)},
              false);
        b.add({flat(40.5f, 40.5f, 41.5f, 40.5f, 40.5f, 41.5f, 0.5f)},
              false);
    });
    // Seeded random triangles, mostly small and overlapping, with
    // depths on both sides of the clear value.
    frame([&](FrameBuilder &b) {
        sim::Rng rng(16);
        for (int d = 0; d < 24; ++d) {
            std::vector<ScreenTriangle> tris;
            for (int t = 0; t < 40; ++t) {
                const float cx = static_cast<float>(rng.range(-10, w + 10));
                const float cy = static_cast<float>(rng.range(-10, h + 10));
                const double r = rng.uniform() < 0.2 ? 60.0 : 6.0;
                ScreenTriangle tri;
                for (int v = 0; v < 3; ++v) {
                    tri.v[v] = {cx + static_cast<float>(rng.range(-r, r)),
                                cy + static_cast<float>(rng.range(-r, r))};
                    tri.z[v] = static_cast<float>(rng.range(0.0, 1.1));
                }
                tris.push_back(tri);
            }
            b.add(std::move(tris), rng.uniform() < 0.3);
        }
    });
    return frames;
}

void
checkHandcrafted(const GpuConfig &config, const std::string &label)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 1);
    SceneBinding binding(scene);
    FunctionalSimulator functional(config, binding);
    ReferenceFunctional reference(config, scene);
    const std::vector<GeometryIR> frames = handcraftedFrames(
        scene, static_cast<float>(config.screenWidth),
        static_cast<float>(config.screenHeight));
    // Twice through one simulator: the second round only matches if
    // every frame starts from a cleared z buffer.
    for (int round = 0; round < 2; ++round) {
        for (const GeometryIR &ir : frames) {
            const FrameActivity want = reference.simulate(ir);
            EXPECT_GT(want.fragmentsShaded, 0u);
            expectSameActivity(want, functional.simulate(ir),
                               label + " case " +
                                   std::to_string(ir.frameIndex));
        }
    }
}

} // namespace

TEST(FunctionalReference, HandcraftedTrianglesMatchTheSpec)
{
    checkHandcrafted(GpuConfig::evaluationScaled(), "192x96");
    checkHandcrafted(GpuConfig::baseline(), "1440x720");
}

TEST(FunctionalReference, EveryGameMatchesTheSpec)
{
    // The first 200 frames cover each game's menus and the start of
    // gameplay (bench/imr_traffic's gameplay window opens at 150).
    const std::size_t frames = 200;
    const GpuConfig config = GpuConfig::evaluationScaled();
    for (const std::string &alias : workloads::benchmarkNames()) {
        const gfx::SceneTrace scene =
            workloads::buildBenchmark(alias, 1.0, frames);
        SceneBinding binding(scene);
        GeometryProcessor geometry(config, binding);
        FunctionalSimulator functional(config, binding);
        ReferenceFunctional reference(config, scene);
        GeometryIR ir;
        for (const gfx::FrameTrace &frame : scene.frames) {
            geometry.processInto(frame, ir);
            expectSameActivity(reference.simulate(ir),
                               functional.simulate(ir),
                               alias + " frame " +
                                   std::to_string(ir.frameIndex));
        }
    }
}
