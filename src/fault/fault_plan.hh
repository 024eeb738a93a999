/**
 * @file
 * Deterministic fault-plan generation.
 *
 * Expands a FaultPlanConfig into a time-ordered list of FaultEvents:
 * the script verbatim, plus Poisson-process draws per (device, kind)
 * from the "fault.plan" RNG stream. Generation is a pure function of
 * (config, device count, root seed) — the same inputs always produce
 * the same plan, and the stream isolation guarantees workload draws
 * are untouched whether or not a plan exists.
 */

#ifndef NEON_FAULT_FAULT_PLAN_HH
#define NEON_FAULT_FAULT_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault_config.hh"

namespace neon
{

/** Expand @p cfg into a time-ordered fault schedule. */
std::vector<FaultEvent> buildFaultPlan(const FaultPlanConfig &cfg,
                                       std::size_t devices,
                                       std::uint64_t root_seed);

} // namespace neon

#endif // NEON_FAULT_FAULT_PLAN_HH
