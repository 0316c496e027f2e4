/**
 * @file
 * Edge-function rasterizer emitting 2x2 quad-fragments, the unit both
 * pipelines shade in. Header-only so the per-quad callback inlines in
 * the simulator hot loops.
 */

#ifndef MSIM_GPUSIM_RASTERIZER_HH
#define MSIM_GPUSIM_RASTERIZER_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/geom.hh"

namespace msim::gpusim
{

/** A screen-space triangle after geometry processing. */
struct ScreenTriangle
{
    util::Vec2f v[3];   // pixel coordinates
    float z[3] = {0.5f, 0.5f, 0.5f};
    util::Vec2f uv[3];

    util::BBox2i
    bounds() const
    {
        const float x0 = std::min({v[0].x, v[1].x, v[2].x});
        const float y0 = std::min({v[0].y, v[1].y, v[2].y});
        const float x1 = std::max({v[0].x, v[1].x, v[2].x});
        const float y1 = std::max({v[0].y, v[1].y, v[2].y});
        return util::BBox2i{static_cast<int>(std::floor(x0)),
                            static_cast<int>(std::floor(y0)),
                            static_cast<int>(std::floor(x1)) + 1,
                            static_cast<int>(std::floor(y1)) + 1};
    }

    /** Twice the signed area; 0 = degenerate, <0 = back-facing. */
    float
    area2() const
    {
        return (v[1].x - v[0].x) * (v[2].y - v[0].y) -
               (v[2].x - v[0].x) * (v[1].y - v[0].y);
    }
};

/**
 * A 2x2 fragment quad: the x/y of its top-left pixel (even
 * coordinates), a 4-bit coverage mask (bit i = pixel (i%2, i/2)),
 * per-pixel interpolated depth and the quad-center texture coordinate.
 * z lanes outside @c mask hold values consumers must ignore.
 */
struct QuadFragment
{
    int x = 0;
    int y = 0;
    std::uint8_t mask = 0;
    float z[4] = {};
    util::Vec2f uv;
};

/**
 * Per-triangle rasterization state that is independent of the tile
 * being scanned: oriented edge-function coefficients, the inverse
 * area and the screen-space bounding box. A triangle binned into many
 * tiles is set up once and rasterized per tile from the same setup —
 * the coefficients are computed with exactly the expressions the
 * one-shot rasterizer used, so coverage, depth and uv are unchanged.
 */
struct TriangleSetup
{
    float ax[3] = {};
    float by[3] = {};
    float cc[3] = {};
    float inv = 0.0f;
    util::BBox2i box{0, 0, 0, 0}; // tri.bounds(), pre-intersection
    bool valid = false;           // false = degenerate (zero area)
};

inline TriangleSetup
setupTriangle(const ScreenTriangle &tri)
{
    TriangleSetup s;
    float a2 = tri.area2();
    if (a2 == 0.0f)
        return s;
    // Orient the edge functions so inside is positive.
    const float flip = a2 < 0.0f ? -1.0f : 1.0f;
    a2 *= flip;

    const util::Vec2f &p0 = tri.v[0];
    const util::Vec2f &p1 = tri.v[1];
    const util::Vec2f &p2 = tri.v[2];
    // Edge i: from v[i] to v[(i+1)%3]; e(x,y) = A*x + B*y + C.
    s.ax[0] = flip * (p0.y - p1.y);
    s.ax[1] = flip * (p1.y - p2.y);
    s.ax[2] = flip * (p2.y - p0.y);
    s.by[0] = flip * (p1.x - p0.x);
    s.by[1] = flip * (p2.x - p1.x);
    s.by[2] = flip * (p0.x - p2.x);
    s.cc[0] = flip * (p0.x * p1.y - p1.x * p0.y);
    s.cc[1] = flip * (p1.x * p2.y - p2.x * p1.y);
    s.cc[2] = flip * (p2.x * p0.y - p0.x * p2.y);
    s.inv = 1.0f / a2;
    s.box = tri.bounds();
    s.valid = true;
    return s;
}

/**
 * Rasterize a set-up triangle over the pixels of @p bounds
 * (half-open), invoking @p emit for every quad with at least one
 * covered sample. Returns the number of quads emitted. @p tri supplies
 * the z/uv attributes interpolated from the setup's barycentrics.
 */
template <typename Emit>
std::size_t
rasterizeSetupInTile(const TriangleSetup &setup,
                     const ScreenTriangle &tri,
                     const util::BBox2i &bounds, Emit &&emit)
{
    if (!setup.valid)
        return 0;
    util::BBox2i box = setup.box.intersect(bounds);
    if (box.empty())
        return 0;
    // Snap to the quad grid.
    box.x0 &= ~1;
    box.y0 &= ~1;

    const float ax0 = setup.ax[0], ax1 = setup.ax[1], ax2 = setup.ax[2];
    const float by0 = setup.by[0], by1 = setup.by[1], by2 = setup.by[2];
    const float cc0 = setup.cc[0], cc1 = setup.cc[1], cc2 = setup.cc[2];
    const float inv = setup.inv;
    // Row-termination predicates. Round-to-nearest is a monotone map,
    // so the float-evaluated edge function is monotone along a row
    // exactly like the real one: for an edge with ax <= 0 (e does not
    // increase with x), a failure at a row's RIGHT sample keeps
    // failing at every larger x. Once both rows of a quad-row have
    // terminated this way, the remaining quads provably have empty
    // coverage and the scan can stop without any output changing.
    // Relevance mask per edge: all lanes when the edge can terminate a
    // row (ax <= 0), none otherwise.
    const unsigned rel0 = ax0 <= 0.0f ? 0xFu : 0u;
    const unsigned rel1 = ax1 <= 0.0f ? 0xFu : 0u;
    const unsigned rel2 = ax2 <= 0.0f ? 0xFu : 0u;

#if defined(__SSE2__)
    const __m128 ax0v = _mm_set1_ps(ax0);
    const __m128 ax1v = _mm_set1_ps(ax1);
    const __m128 ax2v = _mm_set1_ps(ax2);
    const __m128 cc0v = _mm_set1_ps(cc0);
    const __m128 cc1v = _mm_set1_ps(cc1);
    const __m128 cc2v = _mm_set1_ps(cc2);
    const __m128 zerov = _mm_setzero_ps();
    const __m128 twov = _mm_set1_ps(2.0f);
    const __m128 invv = _mm_set1_ps(inv);
    const __m128 z0v = _mm_set1_ps(tri.z[0]);
    const __m128 z1v = _mm_set1_ps(tri.z[1]);
    const __m128 z2v = _mm_set1_ps(tri.z[2]);
#endif

    std::size_t quads = 0;
    for (int y = box.y0; y < box.y1; y += 2) {
        const float pyA = static_cast<float>(y) + 0.5f;
        const float pyB = static_cast<float>(y + 1) + 0.5f;
        // Row-constant by*py products — the exact products the
        // per-sample evaluation computed; the (ax*px + b) + cc
        // grouping below matches the original ((ax*px) + (by*py)) + cc
        // evaluation order term for term.
        const float b0A = by0 * pyA, b0B = by0 * pyB;
        const float b1A = by1 * pyA, b1B = by1 * pyB;
        const float b2A = by2 * pyA, b2B = by2 * pyB;
#if defined(__SSE2__)
        const __m128 b0v = _mm_setr_ps(b0A, b0A, b0B, b0B);
        const __m128 b1v = _mm_setr_ps(b1A, b1A, b1B, b1B);
        const __m128 b2v = _mm_setr_ps(b2A, b2A, b2B, b2B);
        // Sample x per lane, stepped by 2.0f per quad: every sample x
        // is a multiple of 0.5 far below 2^23, so each step is exact
        // and equals the per-quad (float)x + 0.5f bit for bit.
        const float px0L = static_cast<float>(box.x0) + 0.5f;
        const float px0R = static_cast<float>(box.x0 + 1) + 0.5f;
        __m128 pxv = _mm_setr_ps(px0L, px0R, px0L, px0R);
#endif
        bool doneA = false, doneB = false;
        for (int x = box.x0; x < box.x1; x += 2) {
            // Branchless 4-sample evaluation, lane order s0 = (L,A),
            // s1 = (R,A), s2 = (L,B), s3 = (R,B). Each lane is the
            // scalar sample expression verbatim — packed mul/add are
            // per-lane IEEE single ops, so the SSE2 path rounds
            // exactly like the scalar one (no fma, no reassociation) —
            // and evaluating an edge the short-circuiting scan
            // skipped has no side effects. fI holds edge I's fail
            // (e < 0) bit per lane, the same predicate polarity the
            // scan used, so even a NaN takes the branch it did.
            alignas(16) float e0a[4], e1a[4], e2a[4];
            unsigned f0, f1, f2;
#if defined(__SSE2__)
            const __m128 e0v = _mm_add_ps(
                _mm_add_ps(_mm_mul_ps(ax0v, pxv), b0v), cc0v);
            const __m128 e1v = _mm_add_ps(
                _mm_add_ps(_mm_mul_ps(ax1v, pxv), b1v), cc1v);
            const __m128 e2v = _mm_add_ps(
                _mm_add_ps(_mm_mul_ps(ax2v, pxv), b2v), cc2v);
            f0 = static_cast<unsigned>(
                _mm_movemask_ps(_mm_cmplt_ps(e0v, zerov)));
            f1 = static_cast<unsigned>(
                _mm_movemask_ps(_mm_cmplt_ps(e1v, zerov)));
            f2 = static_cast<unsigned>(
                _mm_movemask_ps(_mm_cmplt_ps(e2v, zerov)));
            _mm_store_ps(e0a, e0v);
            _mm_store_ps(e1a, e1v);
            _mm_store_ps(e2a, e2v);
#else
            const float pxL = static_cast<float>(x) + 0.5f;
            const float pxR = static_cast<float>(x + 1) + 0.5f;
            e0a[0] = (ax0 * pxL + b0A) + cc0;
            e0a[1] = (ax0 * pxR + b0A) + cc0;
            e0a[2] = (ax0 * pxL + b0B) + cc0;
            e0a[3] = (ax0 * pxR + b0B) + cc0;
            e1a[0] = (ax1 * pxL + b1A) + cc1;
            e1a[1] = (ax1 * pxR + b1A) + cc1;
            e1a[2] = (ax1 * pxL + b1B) + cc1;
            e1a[3] = (ax1 * pxR + b1B) + cc1;
            e2a[0] = (ax2 * pxL + b2A) + cc2;
            e2a[1] = (ax2 * pxR + b2A) + cc2;
            e2a[2] = (ax2 * pxL + b2B) + cc2;
            e2a[3] = (ax2 * pxR + b2B) + cc2;
            f0 = f1 = f2 = 0;
            for (int s = 0; s < 4; ++s) {
                f0 |= e0a[s] < 0.0f ? 1u << s : 0u;
                f1 |= e1a[s] < 0.0f ? 1u << s : 0u;
                f2 |= e2a[s] < 0.0f ? 1u << s : 0u;
            }
#endif
            const unsigned mask = ~(f0 | f1 | f2) & 0xFu;
            if (mask) {
                QuadFragment quad;
                quad.x = x;
                quad.y = y;
                quad.mask = static_cast<std::uint8_t>(mask);
#if defined(__SSE2__)
                // Barycentric weights: e1 belongs to v0 (opposite
                // edge), e2 to v1, e0 to v2. Each lane is the scalar
                // ((w0*z0 + w1*z1) + w2*z2) in the same order.
                const __m128 w0v = _mm_mul_ps(e1v, invv);
                const __m128 w1v = _mm_mul_ps(e2v, invv);
                const __m128 w2v = _mm_mul_ps(e0v, invv);
                _mm_storeu_ps(
                    quad.z,
                    _mm_add_ps(_mm_add_ps(_mm_mul_ps(w0v, z0v),
                                          _mm_mul_ps(w1v, z1v)),
                               _mm_mul_ps(w2v, z2v)));
                // Texture coordinate of the first covered sample
                // stands in for the whole quad.
                const int first = __builtin_ctz(mask);
                const float w0 = e1a[first] * inv;
                const float w1 = e2a[first] * inv;
                const float w2 = e0a[first] * inv;
                quad.uv = {w0 * tri.uv[0].x + w1 * tri.uv[1].x +
                               w2 * tri.uv[2].x,
                           w0 * tri.uv[0].y + w1 * tri.uv[1].y +
                               w2 * tri.uv[2].y};
#else
                int first = -1;
                for (int s = 0; s < 4; ++s) {
                    if (!(mask & (1u << s)))
                        continue;
                    // Barycentric weights: e1 belongs to v0 (opposite
                    // edge), e2 to v1, e0 to v2.
                    const float w0 = e1a[s] * inv;
                    const float w1 = e2a[s] * inv;
                    const float w2 = e0a[s] * inv;
                    if (first < 0) {
                        first = s;
                        // Texture coordinate of the first covered
                        // sample stands in for the whole quad.
                        quad.uv = {w0 * tri.uv[0].x +
                                       w1 * tri.uv[1].x +
                                       w2 * tri.uv[2].x,
                                   w0 * tri.uv[0].y +
                                       w1 * tri.uv[1].y +
                                       w2 * tri.uv[2].y};
                    }
                    quad.z[s] =
                        w0 * tri.z[0] + w1 * tri.z[1] + w2 * tri.z[2];
                }
#endif
                emit(static_cast<const QuadFragment &>(quad));
                ++quads;
            }

            // Bits 1/3 are each row's RIGHT sample.
            const unsigned rowFail =
                (f0 & rel0) | (f1 & rel1) | (f2 & rel2);
            doneA = doneA || (rowFail & 2u) != 0;
            doneB = doneB || (rowFail & 8u) != 0;
            if (doneA && doneB)
                break;
#if defined(__SSE2__)
            pxv = _mm_add_ps(pxv, twov);
#endif
        }
    }
    return quads;
}

/**
 * One-shot rasterization: set up @p tri and scan @p bounds. Callers
 * that visit the same triangle in many tiles should cache
 * setupTriangle() and call rasterizeSetupInTile() instead.
 */
template <typename Emit>
std::size_t
rasterizeTriangleInTile(const ScreenTriangle &tri,
                        const util::BBox2i &bounds, Emit &&emit)
{
    return rasterizeSetupInTile(setupTriangle(tri), tri, bounds,
                                std::forward<Emit>(emit));
}

} // namespace msim::gpusim

#endif // MSIM_GPUSIM_RASTERIZER_HH
