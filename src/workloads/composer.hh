/**
 * @file
 * Procedural workload composer: expands a compact GameSpec (object
 * groups, gameplay segments, a segment script) into a deterministic
 * SceneTrace. Composition is prefix-stable — frame f of a spec is
 * identical no matter how many frames are requested — so truncated
 * smoke runs and cached full runs agree.
 */

#ifndef MSIM_WORKLOADS_COMPOSER_HH
#define MSIM_WORKLOADS_COMPOSER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gfx/trace.hh"

namespace msim::workloads
{

/** Where a group's instances live on screen. */
enum class Placement {
    Backdrop, // full-screen background layer, drawn first
    Sprite,   // world objects moving through the scene
    Overlay,  // HUD elements, drawn last, screen-fixed
};

/** A class of drawable objects sharing mesh/shader/texture setup. */
struct GroupSpec
{
    std::string name;
    Placement placement = Placement::Sprite;
    std::uint32_t detail = 2; // mesh tessellation level
    std::uint32_t vs = 0;     // vertex-shader slot (per game)
    std::uint32_t fs = 0;     // fragment-shader slot (per game)
    std::uint32_t tex = 0;    // texture slot (per game)
    bool transparent = false;
    std::uint32_t minCount = 1;
    std::uint32_t maxCount = 1;
    float sizeMin = 0.2f;
    float sizeMax = 0.4f;
};

/** A gameplay phase activating a subset of the groups. */
struct SegmentSpec
{
    std::string name;
    std::vector<std::size_t> groups; // indices into GameSpec::groups
    std::uint32_t minFrames = 40;
    std::uint32_t maxFrames = 80;
    float intensity = 1.0f; // scales instance counts
    float churn = 0.3f;     // 0..1: how fast instances respawn
};

struct GameSpec
{
    std::string name;
    std::string title;
    std::string downloadsMillions; // Table II column (informative)
    bool is3d = false;
    std::size_t frames = 1000;
    std::uint64_t seed = 1;
    std::uint32_t numVertexShaders = 2;
    std::uint32_t numFragmentShaders = 4;
    std::uint32_t numTextures = 4;
    std::uint32_t numWorlds = 1;       // mesh/texture variants
    std::uint32_t instancesPerWorld = 8;
    std::vector<GroupSpec> groups;
    std::vector<SegmentSpec> segments;
    std::vector<std::size_t> script; // segment index per phase
};

class SceneComposer
{
  public:
    explicit SceneComposer(const GameSpec &spec, double scale = 1.0);

    /** Expand spec.frames frames. */
    gfx::SceneTrace compose() const;

  private:
    struct SegmentPlan; // one segment's draw order, counts and lifetime
    struct Instance;    // what one (group, instance) pair's draws share

    SegmentPlan planSegment(const SegmentSpec &segment) const;
    gfx::FrameTrace composeFrame(
        std::size_t f, const SegmentPlan &plan,
        std::vector<std::vector<Instance>> &memo,
        std::vector<gfx::DrawInstance> &rows) const;

    GameSpec spec_;
    double scale_;
};

} // namespace msim::workloads

#endif // MSIM_WORKLOADS_COMPOSER_HH
