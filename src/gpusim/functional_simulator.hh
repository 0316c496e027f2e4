/**
 * @file
 * Functional simulator: renders frames with no timing model and
 * collects the architecture-independent activity counts MEGsim builds
 * its characteristic vectors from (per-shader invocation counts and
 * the primitive count, Sec. III-B).
 */

#ifndef MSIM_GPUSIM_FUNCTIONAL_SIMULATOR_HH
#define MSIM_GPUSIM_FUNCTIONAL_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "gpusim/geometry.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/scene_binding.hh"

namespace msim::gpusim
{

/** Architecture-independent per-frame activity. */
struct FrameActivity
{
    std::uint32_t frameIndex = 0;
    std::uint64_t primitives = 0;
    std::uint64_t verticesShaded = 0;
    std::uint64_t fragmentsShaded = 0;
    // Invocations per shader, indexed by the shader's position among
    // shaders of its kind (SceneTrace column order).
    std::vector<std::uint64_t> vsCounts;
    std::vector<std::uint64_t> fsCounts;
};

class FunctionalSimulator
{
  public:
    FunctionalSimulator(const GpuConfig &config,
                        const SceneBinding &binding);

    FrameActivity simulate(const gfx::FrameTrace &frame);
    FrameActivity simulate(const GeometryIR &ir);

  private:
    /**
     * The depths of one 2x2 quad, in the rasterizer's lane order:
     * s0 = (L, A), s1 = (R, A), s2 = (L, B), s3 = (R, B). The z buffer
     * is quad-major, so a quad's depth test is one aligned load and
     * one packed compare. This needs even screen sides, which both
     * shipped screens (192x96 and 1440x720) have.
     */
    struct alignas(16) QuadDepth
    {
        float d[4];
    };

    GpuConfig config_;
    GeometryProcessor geometry_;
    std::vector<std::uint32_t> shaderColumn_; // global id -> column
    std::size_t numVs_ = 0;
    std::size_t numFs_ = 0;
    std::vector<QuadDepth> depth_; // full screen, filled with 1.0f per frame
    GeometryIR ir_; // reused across simulate(FrameTrace) calls
};

} // namespace msim::gpusim

#endif // MSIM_GPUSIM_FUNCTIONAL_SIMULATOR_HH
