/**
 * @file
 * FNV-1a 64-bit content checksums (checkpoint journal lines, serve
 * protocol frames). Not cryptographic — the threat model is
 * truncation, bit rot and partial writes, not an adversary.
 */

#ifndef MSIM_RESILIENCE_CHECKSUM_HH
#define MSIM_RESILIENCE_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace msim::resilience
{

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Streaming FNV-1a 64. */
class Checksum
{
  public:
    void
    update(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= bytes[i];
            hash_ *= kFnvPrime;
        }
    }

    void update(std::string_view text)
    {
        update(text.data(), text.size());
    }

    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_ = kFnvOffsetBasis;
};

/** One-shot convenience. */
inline std::uint64_t
fnv1a(std::string_view text)
{
    Checksum c;
    c.update(text);
    return c.digest();
}

} // namespace msim::resilience

#endif // MSIM_RESILIENCE_CHECKSUM_HH
