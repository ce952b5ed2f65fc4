/**
 * @file
 * The RPC app pair on the serving harness: RpcClientPool on the
 * client node, RpcServer behind the host fast path on the server node
 * — FLD-driven (stack as AFU behind the AXI stream) or CPU-driven (see
 * serve_harness.h).
 *
 * Oracles folded into the report:
 *  - shadow conformance: every response equals rpc_execute(request)
 *    (checked in the client, unconditionally);
 *  - lifecycle/exactly-once: all requests answered exactly once and
 *    all connections closed cleanly (fault-free runs);
 *  - differential: the per-request digest map (request_id -> response
 *    FNV) must be identical between FLD- and CPU-served runs;
 *  - rerun determinism: state_hash (digests + counters + latency
 *    fold + end time) must be bit-identical across same-config runs;
 *  - the shared frame: conservation ledger, stack quiescence, server
 *    app idle, optional TraceChecker.
 *
 * The report carries the SLO measurements bench_rpc serves: p50/p99/
 * p99.9 request latency, completed request rate, and goodput.
 */
#ifndef FLD_APPS_RPC_HARNESS_H
#define FLD_APPS_RPC_HARNESS_H

#include <map>
#include <string>

#include "apps/rpc_client.h"
#include "apps/rpc_service.h"
#include "apps/serve_harness.h"

namespace fld::apps {

struct RpcHarnessConfig : ServeConfig
{
    RpcClientConfig client; ///< remote ip/port filled in by the harness
    RpcServerConfig server;
};

struct RpcReport : ServeReport
{
    /** request_id -> response digest: the differential oracle value
     *  (identical across FLD and CPU modes, fault-free). state_hash
     *  folds digest_hash with all counters and the latency fold. */
    std::map<uint64_t, uint64_t> digests;
    uint64_t digest_hash = 0;

    // SLO measurements.
    sim::Histogram latency; ///< per-request latency, microseconds
    double p50_us = 0, p99_us = 0, p999_us = 0, mean_us = 0;
    double req_per_sec = 0;  ///< completed requests / simulated second
    double goodput_gbps = 0; ///< response payload bits / simulated sec

    RpcClientStats client_app;
    RpcServerStats server_app;
    RpcDispatchStats dispatch;

    std::string summary() const;
};

/** Build the testbed, serve the workload to quiescence, fold oracles. */
RpcReport run_rpc_scenario(const RpcHarnessConfig& cfg);

} // namespace fld::apps

#endif // FLD_APPS_RPC_HARNESS_H
