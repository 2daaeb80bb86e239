/**
 * @file
 * Binary serialization of captured workload traces.
 *
 * Captures are deterministic but capture time (data load + native
 * transaction execution) dominates short experiments; saving a trace
 * lets the machine sweeps re-run without the database.
 *
 * A trace file is one byte buffer, encoded and decoded in memory:
 * magic and version (two u32), the site-table digest (u64), the body
 * (transactions > sections > epochs, each epoch as columns; see
 * traceio.cc), and a u64 det::Hash of every byte before it. The
 * loader checks that digest before it decodes anything and rejects a
 * bad file with a reason, never a panic; the writer renames a whole
 * temporary into place, so no reader in any process sees a part file.
 *
 * A trace holds only synthetic addresses and site PCs (core/tracer.h,
 * core/site.h), so a file is a pure function of the capture and
 * replays identically in any process of a build with the same site
 * table; the header's site-table digest rejects files from another.
 */

#ifndef SIM_TRACEIO_H
#define SIM_TRACEIO_H

#include <string>
#include <string_view>

#include "core/trace.h"

namespace tlsim {
namespace sim {

/** Magic + version of the trace container format. */
inline constexpr std::uint32_t kTraceMagic = 0x544c5331; // "TLS1"
inline constexpr std::uint32_t kTraceVersion = 6;
// v4: epochs store columnar streams (op/size/aux/pc arrays plus
// zigzag-varint delta-coded addresses) instead of packed TraceRecord
// structs — near-sequential addresses delta-code to a byte or two.
// v5: the site-name table and the loader's PC remap give way to one
// digest of the compiled site table; addresses are synthetic.
// v6: the v5 bytes, then a det::Hash digest of them.

/** The bytes of a trace file holding `w`. */
std::string encodeTrace(const WorkloadTrace &w);

/**
 * Decode the bytes of a trace file into `*out`; returns "" on success.
 * Otherwise `*out` is untouched and the result says why the bytes were
 * rejected: a digest mismatch (checked first), another format version
 * or site table, or malformed content.
 */
std::string decodeTrace(std::string_view bytes, WorkloadTrace *out);

/** Write `w` to `path` by temporary and rename; fatal on I/O error. */
void saveTraceFile(const std::string &path, const WorkloadTrace &w);

/** Read and decode `path`: decodeTrace()'s result, unreported. */
std::string readTraceFile(const std::string &path, WorkloadTrace *out);

/**
 * readTraceFile(), reporting a rejection as `<path>: <why>`: through
 * inform() for a file of another format version, the expected stale
 * case, and through warn() for anything else.
 */
bool loadTraceFile(const std::string &path, WorkloadTrace *out);

} // namespace sim
} // namespace tlsim

#endif // SIM_TRACEIO_H
