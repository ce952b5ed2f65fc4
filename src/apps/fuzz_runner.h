/**
 * @file
 * Materializes a sim::FuzzScenario into real testbeds and judges the
 * four fuzzing oracles.
 *
 * An Ethernet scenario is run twice over the identical workload — once
 * with the echo behind the hardware FLD, once with a testpmd-style CPU
 * echo — and the runner checks:
 *
 *  (a) differential equivalence: the two runs deliver the same per-flow
 *      multiset of payloads, byte-identical up to ordering (multi-SQ
 *      spraying legitimately reorders within a flow). Only judged when
 *      the scenario is fault-free and neither run shed load, since
 *      drops are timing-dependent and legitimately differ;
 *  (b) zero TraceChecker causal-invariant violations in either run;
 *  (c) exactly-once delivery (RDMA scenarios: the RC transport must
 *      deliver every message once, bytes intact, even under loss);
 *  (d) conservation: tx = rx + accounted drops + in-flight, via the
 *      sim::ConservationLedger over NIC/driver/AFU/fault counters.
 *
 * A ConnServe scenario likewise runs twice — the same AppEmu TCP
 * workload against an FLD-served and a CPU-served host fast path
 * (apps::run_fastpath_scenario) — and folds the harness's lifecycle /
 * exactly-once / conservation verdicts into the same four-oracle
 * frame, with per-flow digest equality as the differential check.
 *
 * An RpcServe scenario runs the RPC tier (apps::run_rpc_scenario)
 * FLD- and CPU-served over the identical seeded request streams; the
 * differential check diffs per-connection folds of the per-request
 * response digests, and the harness's shadow-oracle conformance /
 * lifecycle / conservation verdicts fold in like ConnServe's.
 *
 * End-to-end payload integrity (pattern verification) is checked
 * unconditionally — corrupted frames must be FCS-dropped, never
 * delivered damaged.
 */
#ifndef FLD_APPS_FUZZ_RUNNER_H
#define FLD_APPS_FUZZ_RUNNER_H

#include <map>
#include <string>
#include <vector>

#include "apps/pktgen.h"
#include "apps/scenarios.h"
#include "apps/testbed.h"
#include "sim/fuzz.h"
#include "sim/stats.h"

namespace fld::apps {

/**
 * Runner knobs. Every scenario's knobs apply on top of the default
 * TestbedConfig and PktGenConfig.
 */
struct FuzzRunOptions
{
    /** Record + check packet-lifecycle traces (oracle b). Uses the
     *  thread-local Tracer slot, so at most one FuzzRunner may have
     *  this enabled per thread at a time (one per sweep worker). */
    bool check_trace = true;
};

/** Everything observable from one materialized run. */
struct FuzzRunDigest
{
    std::string label;           ///< "fld" / "cpu" / "rdma"
    uint64_t tx = 0;
    uint64_t rx = 0;
    uint64_t bad_payload = 0;    ///< delivered-with-wrong-bytes count
    uint64_t duplicate_msgs = 0; ///< RDMA: messages delivered twice+
    uint64_t missing_msgs = 0;   ///< RDMA: messages never delivered
    uint64_t drops = 0;          ///< sum of all named drop counters
    std::map<uint32_t, uint64_t> flow_digests;
    sim::FaultCounters faults;
    sim::ConservationLedger ledger;
    /** Oracle violations the materialized harness judged itself
     *  (ConnServe: the fastpath harness's lifecycle/exactly-once/
     *  conservation verdicts); folded into the FuzzVerdict. */
    std::vector<std::string> violations;
    std::vector<std::string> trace_violations;
    uint64_t trace_hash = 0; ///< FNV of the causal trace digest
    sim::TimePs end_time = 0;

    /** Deterministic multi-line transcript block. */
    std::string to_string() const;
};

struct FuzzVerdict
{
    bool ok = true;
    std::vector<std::string> violations;
    /** Full deterministic transcript: scenario dump + per-run digests
     *  + verdict. Bit-identical across replays of the same seed. */
    std::string transcript;
    uint64_t transcript_hash = 0;
    /** One-line description of what ran, for progress output. */
    std::string summary;
};

class FuzzRunner
{
  public:
    explicit FuzzRunner(FuzzRunOptions opt = {}) : opt_(std::move(opt))
    {}

    /** Materialize, run (twice for Ethernet), judge all oracles. */
    FuzzVerdict run(const sim::FuzzScenario& scenario);

  private:
    FuzzRunDigest run_eth(const sim::FuzzScenario& s, bool fld_path);
    FuzzRunDigest run_rdma(const sim::FuzzScenario& s);
    FuzzRunDigest run_conn(const sim::FuzzScenario& s, bool fld_mode);
    FuzzRunDigest run_rpc(const sim::FuzzScenario& s, bool fld_mode);

    PktGenConfig gen_config(const sim::FuzzScenario& s) const;
    TestbedConfig tb_config(const sim::FuzzScenario& s) const;
    EchoOptions echo_options(const sim::FuzzScenario& s) const;

    FuzzRunOptions opt_;
};

} // namespace fld::apps

#endif // FLD_APPS_FUZZ_RUNNER_H
