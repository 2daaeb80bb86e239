/**
 * @file
 * Binary serialization of captured workload traces.
 *
 * Captures are deterministic but capture time (data load + native
 * transaction execution) dominates short experiments; saving a trace
 * lets the machine sweeps re-run without the database. The format is
 * versioned and self-describing enough to reject foreign files.
 *
 * A trace holds only synthetic addresses and site PCs (core/tracer.h,
 * core/site.h), so a file is a pure function of the capture and
 * replays identically in any process of a build with the same site
 * table; the header's site-table digest rejects files from another.
 */

#ifndef SIM_TRACEIO_H
#define SIM_TRACEIO_H

#include <iosfwd>
#include <string>

#include "core/trace.h"

namespace tlsim {
namespace sim {

/** Magic + version of the trace container format. */
inline constexpr std::uint32_t kTraceMagic = 0x544c5331; // "TLS1"
inline constexpr std::uint32_t kTraceVersion = 5;
// v4: epochs store columnar streams (op/size/aux/pc arrays plus
// zigzag-varint delta-coded addresses) instead of packed TraceRecord
// structs — near-sequential addresses delta-code to a byte or two.
// v5: the site-name table and the loader's PC remap give way to one
// digest of the compiled site table; addresses are synthetic.

/** Serialize a workload to a stream / file. */
void saveTrace(std::ostream &os, const WorkloadTrace &w);
void saveTraceFile(const std::string &path, const WorkloadTrace &w);

/**
 * Deserialize. Returns false for wrong magic/version (foreign file),
 * for another site table, and for structurally malformed content —
 * bad opcodes, oversized accesses, or escape spans that are
 * unordered, overlapping, out of bounds, or not anchored on
 * EscapeBegin/EscapeEnd records — after describing the defect via
 * inform(). Panics only on truncation.
 */
bool loadTrace(std::istream &is, WorkloadTrace *out);
bool loadTraceFile(const std::string &path, WorkloadTrace *out);

} // namespace sim
} // namespace tlsim

#endif // SIM_TRACEIO_H
