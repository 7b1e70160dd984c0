/**
 * @file
 * Dapper-style trace context propagated across RPC hops.
 *
 * A TraceContext is minted once per client-visible operation (a Get, a
 * Put, a coalesced batch) by the front door and carried by value inside
 * `kv::OpContext` through the router's replication walk, the RPC envelope,
 * and the storage node's handler. Every trace event a layer
 * emits for that operation tags the same `trace_id`, which is how a
 * hedged read's duplicate attempt on a second node is linked back to its
 * parent request when the Perfetto export is inspected.
 *
 * Ids are allocated from a per-client monotonic counter, so they are
 * deterministic for a fixed seed: two same-seed runs assign the same id
 * to the same operation, and trace exports stay byte-identical.
 */
#ifndef SDF_OBS_TRACE_CONTEXT_H
#define SDF_OBS_TRACE_CONTEXT_H

#include <cstdint>

namespace sdf::obs {

/** Identity of one distributed request; 0 means "not traced". */
struct TraceContext
{
    uint64_t trace_id = 0;  ///< Request identity across all hops.

    bool valid() const { return trace_id != 0; }
};

}  // namespace sdf::obs

#endif  // SDF_OBS_TRACE_CONTEXT_H
