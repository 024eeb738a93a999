/**
 * @file
 * Heap-allocation counter for the allocation guards.
 *
 * alloc_counter.cc replaces the global operator new and delete of the
 * whole test binary (a second replacement would not link) and counts
 * every allocation, from any thread. A guard reads the count before
 * and after the work it pins.
 */

#ifndef NEON_TESTS_SUPPORT_ALLOC_COUNTER_HH
#define NEON_TESTS_SUPPORT_ALLOC_COUNTER_HH

#include <cstdint>

namespace neon::test
{

/** Allocations through operator new so far in this process. */
std::uint64_t allocationCount();

} // namespace neon::test

#endif // NEON_TESTS_SUPPORT_ALLOC_COUNTER_HH
