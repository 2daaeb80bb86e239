/**
 * @file
 * Fundamental scalar types shared by every module of the simulator.
 */

#ifndef BASE_TYPES_H
#define BASE_TYPES_H

#include <cstdint>

namespace tlsim {

/** A simulated cycle count (global time base of the CMP). */
using Cycle = std::uint64_t;

/** A simulated memory address: traces carry the tracer's synthetic
 *  addresses, all below 4 GB (core/tracer.h). */
using Addr = std::uint64_t;

/** A (synthetic) program counter identifying a static code site. */
using Pc = std::uint32_t;

/** A count of dynamic instructions. */
using InstCount = std::uint64_t;

/** Identifier of a CPU core within the CMP. */
using CpuId = std::uint32_t;

/** Identifier of an epoch (speculative thread) in program order. */
using EpochId = std::uint64_t;

/**
 * A global speculative thread-context identifier. Contexts are the L2's
 * unit of speculative-state tracking: one per (CPU slot, sub-thread).
 */
using ContextId = std::uint32_t;

/** Sentinel for "no context". */
inline constexpr ContextId kNoContext = ~ContextId{0};

/** Sentinel for "no cycle yet" / unbounded time. */
inline constexpr Cycle kCycleMax = ~Cycle{0};

} // namespace tlsim

#endif // BASE_TYPES_H
