/**
 * @file
 * A test-local allocation counter: while armed, it keeps the largest
 * single request any operator new in the binary sees. The header
 * replaces the global operator new and delete, so exactly one
 * translation unit of a test binary may include it.
 */

#ifndef MSIM_TESTS_LARGEST_ALLOCATION_HH
#define MSIM_TESTS_LARGEST_ALLOCATION_HH

#include <atomic>
#include <cstdlib>
#include <new>

namespace msim::test
{

std::atomic<bool> trackAllocations{false};
std::atomic<std::size_t> largestAllocation{0};

void *
countedAlloc(std::size_t size)
{
    if (trackAllocations.load(std::memory_order_relaxed)) {
        std::size_t seen =
            largestAllocation.load(std::memory_order_relaxed);
        while (size > seen &&
               !largestAllocation.compare_exchange_weak(
                   seen, size, std::memory_order_relaxed)) {
        }
    }
    return std::malloc(size ? size : 1);
}

// Out of line, so the compiler does not see a pointer from operator
// new reach free() and warn about a mismatch that is not one.
[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
}

} // namespace msim::test

// Every replaceable form that a default-aligned new or delete can take,
// so each allocation pairs malloc with free (sanitizers check the
// pairing).
void *
operator new(std::size_t size)
{
    if (void *p = msim::test::countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return msim::test::countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return msim::test::countedAlloc(size);
}

void operator delete(void *p) noexcept { msim::test::countedFree(p); }
void operator delete[](void *p) noexcept { msim::test::countedFree(p); }
void
operator delete(void *p, std::size_t) noexcept
{
    msim::test::countedFree(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    msim::test::countedFree(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    msim::test::countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    msim::test::countedFree(p);
}

#endif // MSIM_TESTS_LARGEST_ALLOCATION_HH
