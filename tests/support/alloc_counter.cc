/**
 * @file
 * Counting replacements of the global operator new and delete.
 */

#include "support/alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<std::uint64_t> gAllocCount{0};

} // namespace

std::uint64_t
neon::test::allocationCount()
{
    return gAllocCount.load();
}

void *
operator new(std::size_t size)
{
    ++gAllocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms must be replaced too: the library's defaults (and
// a sanitizer's) would pair their own allocator with the free() below,
// e.g. for std::stable_sort's temporary buffer.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++gAllocCount;
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
