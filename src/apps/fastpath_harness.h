/**
 * @file
 * The byte-stream app pair on the serving harness (serve_harness.h):
 * AppEmu clients stream requests into a SinkApp on the server stack.
 * The report adds per-flow byte digests from both ends and an
 * exactly-once/lifecycle verdict. FLD- and CPU-served runs of one
 * workload must produce identical flow hashes (the differential
 * oracle — frame timing differs, bytes delivered may not).
 */
#ifndef FLD_APPS_FASTPATH_HARNESS_H
#define FLD_APPS_FASTPATH_HARNESS_H

#include <map>
#include <string>

#include "apps/app_emu.h"
#include "apps/serve_harness.h"

namespace fld::apps {

struct FastPathHarnessConfig : ServeConfig
{
    AppEmuConfig app;   ///< client workload (remote ip/port filled in)
    SinkAppConfig sink;
};

/** One flow's byte-stream summary, from either end. */
struct FlowDigest
{
    uint64_t bytes = 0;
    uint64_t digest = 0;
    bool opened = false;
    bool closed = false;
    bool reset = false;
};

struct FastPathReport : ServeReport
{
    /** Keyed by client local port (unique per incarnation). */
    std::map<uint16_t, FlowDigest> client_flows;
    std::map<uint16_t, FlowDigest> server_flows;

    /** FNV over the per-flow digest maps: the differential oracle
     *  value (identical across FLD and CPU modes). state_hash folds
     *  it with every counter below. */
    uint64_t flow_hash = 0;

    uint32_t opened = 0;
    uint32_t accepted = 0;
    uint32_t closed = 0;
    uint32_t resets = 0;
    uint64_t client_bytes = 0; ///< sum of client sent bytes
    uint64_t server_bytes = 0; ///< sum of server delivered bytes

    std::string summary() const;
};

/** Build the testbed, run the workload to quiescence, fold oracles. */
FastPathReport run_fastpath_scenario(const FastPathHarnessConfig& cfg);

} // namespace fld::apps

#endif // FLD_APPS_FASTPATH_HARNESS_H
