/**
 * @file
 * Workload intermediate representation: shader programs (instruction
 * mixes incl. weighted texture ops), textures, meshes, draw instances,
 * draw calls, per-frame traces and whole-sequence SceneTraces. This
 * is the architecture-independent input both simulators consume.
 */

#ifndef MSIM_GFX_TRACE_HH
#define MSIM_GFX_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/geom.hh"

namespace msim::gfx
{

enum class ShaderKind { Vertex, Fragment };

/** Texture filtering mode; weights per the paper (Sec. III-B). */
enum class TextureFilter { Linear, Bilinear, Trilinear };

double textureFilterWeight(TextureFilter filter); // 2 / 4 / 8

struct ShaderProgram
{
    std::uint32_t id = 0;       // index into SceneTrace::shaders
    ShaderKind kind = ShaderKind::Vertex;
    std::uint32_t aluInstructions = 8;
    std::uint32_t textureSamples = 0;
    TextureFilter filter = TextureFilter::Bilinear;

    /** Executed instructions per invocation. */
    std::uint64_t
    instructionCount() const
    {
        return aluInstructions + textureSamples;
    }

    /**
     * The per-invocation weight used for the characteristic vectors:
     * ALU ops count 1, texture ops count their filter weight.
     */
    double
    characteristicCost() const
    {
        return static_cast<double>(aluInstructions) +
               static_cast<double>(textureSamples) *
                   textureFilterWeight(filter);
    }
};

struct Texture
{
    std::uint32_t id = 0;
    std::uint32_t width = 128;
    std::uint32_t height = 128;
    std::uint32_t bytesPerTexel = 4;

    std::uint64_t
    sizeBytes() const
    {
        return static_cast<std::uint64_t>(width) * height *
               bytesPerTexel;
    }
};

/** Unit-space triangle-list mesh ([-0.5, 0.5]² footprint). */
struct Mesh
{
    std::uint32_t id = 0;
    std::vector<util::Vec3f> positions;
    std::vector<util::Vec2f> uvs;
    std::vector<std::uint32_t> indices; // 3 per triangle

    std::size_t triangleCount() const { return indices.size() / 3; }
};

/**
 * What every draw of one instance shares for one lifetime epoch, 20
 * bytes: a scene holds one row per respawn (the composed suite about
 * 38,000). The ids are 16 bits wide, so a scene's shader and mesh
 * tables hold at most kMaxShaders / kMaxMeshes entries and its texture
 * table kMaxTextures (-1 is "untextured"); SceneTrace::validate() and
 * the composer refuse larger tables.
 */
struct DrawInstance
{
    static constexpr std::size_t kMaxShaders = std::size_t{1} << 16;
    static constexpr std::size_t kMaxMeshes = std::size_t{1} << 16;
    static constexpr std::size_t kMaxTextures = std::size_t{1} << 15;

    std::uint16_t meshId = 0;
    std::uint16_t vsId = 0;     // global shader id (kind Vertex)
    std::uint16_t fsId = 0;     // global shader id (kind Fragment)
    std::int16_t textureId = -1;
    bool transparent = false;
    float depth = 0.5f;         // [0,1); smaller = closer
    float scale = 1.0f;
};

static_assert(sizeof(DrawInstance) == 20);

/**
 * One draw, 16 bytes: an instance row and this frame's placement in
 * normalized screen space. A composed suite holds about 1.45 million.
 */
struct DrawCall
{
    std::uint32_t instance = 0; // index into SceneTrace::instances
    float x = 0.5f;
    float y = 0.5f;
    float rotation = 0.0f;      // radians
};

static_assert(sizeof(DrawCall) == 16);

struct FrameTrace
{
    std::uint32_t index = 0;
    std::vector<DrawCall> draws;
};

struct SceneTrace
{
    std::string name;
    std::vector<ShaderProgram> shaders; // vertex first, then fragment
    std::vector<Texture> textures;
    std::vector<Mesh> meshes;
    std::vector<DrawInstance> instances; // rows the draws index
    std::vector<FrameTrace> frames;

    std::size_t numFrames() const { return frames.size(); }
    std::size_t numVertexShaders() const;
    std::size_t numFragmentShaders() const;

    /** Global ids of shaders of @p kind, in column order. */
    std::vector<std::uint32_t> shaderIdsOf(ShaderKind kind) const;

    /** Empty string when consistent; otherwise a diagnosis. */
    std::string validate() const;

    /** Structural FNV hash (keys the on-disk frame-stats cache). */
    std::uint64_t contentHash() const;
};

} // namespace msim::gfx

#endif // MSIM_GFX_TRACE_HH
