#include "gfx/trace.hh"

#include <cstdio>

namespace msim::gfx
{

double
textureFilterWeight(TextureFilter filter)
{
    switch (filter) {
      case TextureFilter::Linear: return 2.0;
      case TextureFilter::Bilinear: return 4.0;
      case TextureFilter::Trilinear: return 8.0;
    }
    return 1.0;
}

std::size_t
SceneTrace::numVertexShaders() const
{
    std::size_t n = 0;
    for (const ShaderProgram &s : shaders)
        n += s.kind == ShaderKind::Vertex;
    return n;
}

std::size_t
SceneTrace::numFragmentShaders() const
{
    std::size_t n = 0;
    for (const ShaderProgram &s : shaders)
        n += s.kind == ShaderKind::Fragment;
    return n;
}

std::vector<std::uint32_t>
SceneTrace::shaderIdsOf(ShaderKind kind) const
{
    std::vector<std::uint32_t> ids;
    for (const ShaderProgram &s : shaders)
        if (s.kind == kind)
            ids.push_back(s.id);
    return ids;
}

std::string
SceneTrace::validate() const
{
    if (shaders.size() > DrawInstance::kMaxShaders)
        return "shader table is too large for 16-bit draw ids";
    if (meshes.size() > DrawInstance::kMaxMeshes)
        return "mesh table is too large for 16-bit draw ids";
    if (textures.size() > DrawInstance::kMaxTextures)
        return "texture table is too large for 16-bit draw ids";
    char buf[128];
    for (std::size_t i = 0; i < shaders.size(); ++i) {
        if (shaders[i].id != i) {
            std::snprintf(buf, sizeof(buf),
                          "shader %zu has id %u", i, shaders[i].id);
            return buf;
        }
    }
    for (std::size_t r = 0; r < instances.size(); ++r) {
        const DrawInstance &row = instances[r];
        const char *fault = nullptr;
        if (row.meshId >= meshes.size())
            fault = "references missing mesh";
        else if (row.vsId >= shaders.size() ||
                 shaders[row.vsId].kind != ShaderKind::Vertex)
            fault = "vsId is not a vertex shader";
        else if (row.fsId >= shaders.size() ||
                 shaders[row.fsId].kind != ShaderKind::Fragment)
            fault = "fsId is not a fragment shader";
        else if (row.textureId >= 0 &&
                 static_cast<std::size_t>(row.textureId) >=
                     textures.size())
            fault = "references missing texture";
        if (fault) {
            std::snprintf(buf, sizeof(buf), "instance row %zu %s", r,
                          fault);
            return buf;
        }
    }
    for (std::size_t f = 0; f < frames.size(); ++f) {
        for (std::size_t d = 0; d < frames[f].draws.size(); ++d) {
            const std::uint32_t row = frames[f].draws[d].instance;
            if (row >= instances.size()) {
                std::snprintf(buf, sizeof(buf),
                              "frame %zu draw %zu references instance "
                              "row %u of %zu",
                              f, d, row, instances.size());
                return buf;
            }
        }
    }
    for (const Mesh &m : meshes) {
        if (m.positions.size() != m.uvs.size())
            return "mesh position/uv count mismatch";
        for (std::uint32_t idx : m.indices)
            if (idx >= m.positions.size())
                return "mesh index out of range";
    }
    return "";
}

namespace
{

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    // Through int64_t: draw coordinates can be negative, and a
    // negative float converted straight to an unsigned type is
    // undefined. Scene values keep |f * 4096| far below 2^63.
    void
    mixF(float f)
    {
        mix(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(f * 4096.0f)));
    }
};

} // namespace

std::uint64_t
SceneTrace::contentHash() const
{
    Fnv fnv;
    fnv.mix(frames.size());
    for (const ShaderProgram &s : shaders) {
        fnv.mix(static_cast<std::uint64_t>(s.kind));
        fnv.mix(s.aluInstructions);
        fnv.mix(s.textureSamples);
        fnv.mix(static_cast<std::uint64_t>(s.filter));
    }
    for (const Mesh &m : meshes) {
        fnv.mix(m.positions.size());
        fnv.mix(m.indices.size());
    }
    for (const Texture &t : textures)
        fnv.mix(t.sizeBytes());
    for (const FrameTrace &f : frames) {
        fnv.mix(f.draws.size());
        // Each draw resolved through its row: the hash is of what is
        // drawn, not of how the rows are shared.
        for (const DrawCall &d : f.draws) {
            const DrawInstance &row = instances[d.instance];
            fnv.mix(row.meshId);
            fnv.mix(row.vsId);
            fnv.mix(row.fsId);
            fnv.mix(static_cast<std::uint64_t>(row.textureId + 1));
            fnv.mix(row.transparent);
            fnv.mixF(d.x);
            fnv.mixF(d.y);
            fnv.mixF(row.depth);
            fnv.mixF(row.scale);
            fnv.mixF(d.rotation);
        }
    }
    return fnv.h;
}

} // namespace msim::gfx
