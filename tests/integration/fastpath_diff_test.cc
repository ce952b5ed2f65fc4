/**
 * @file
 * Differential tests for the host fast path: the same connection
 * workload served FLD-driven and CPU-driven must deliver identical
 * per-flow byte streams (digest equality), every run must satisfy the
 * lifecycle / exactly-once / conservation oracles, and a same-config
 * rerun must be bit-identical (state-hash equality). The trace and
 * ARP checks take the serving harness's app pair as one more input:
 * they run the byte-stream and the RPC pair alike.
 */
#include <gtest/gtest.h>

#include "apps/fastpath_harness.h"
#include "apps/rpc_harness.h"

using namespace fld;
using apps::FastPathHarnessConfig;
using apps::FastPathMode;
using apps::FastPathReport;
using apps::ServeConfig;

namespace {

FastPathHarnessConfig
small_cfg(FastPathMode mode)
{
    FastPathHarnessConfig cfg;
    cfg.mode = mode;
    cfg.app.connections = 32;
    cfg.app.requests_per_conn = 4;
    cfg.app.request_bytes = 512;
    return cfg;
}

void
expect_clean(const FastPathReport& r, const char* what)
{
    EXPECT_TRUE(r.ok) << what << ":\n" << r.summary();
    EXPECT_EQ(r.resets, 0u) << what;
    EXPECT_TRUE(r.client_quiesced) << what;
    EXPECT_TRUE(r.server_quiesced) << what;
}

/** One app pair's run: the shared report frame, whether every
 *  connection ended without a reset or abort, and the summary. */
struct PairRun
{
    apps::ServeReport frame;
    bool no_resets;
    std::string summary;
};

/** An app pair on the serving harness, run for @p conns connections
 *  of its small workload under the shared knobs @p serve. */
struct AppPair
{
    const char* name;
    PairRun (*run)(const ServeConfig& serve, uint32_t conns);
};

const AppPair kAppPairs[] = {
    {"byte-stream",
     [](const ServeConfig& serve, uint32_t conns) {
         FastPathHarnessConfig cfg = small_cfg(serve.mode);
         static_cast<ServeConfig&>(cfg) = serve;
         cfg.app.connections = conns;
         FastPathReport r = apps::run_fastpath_scenario(cfg);
         return PairRun{r, r.resets == 0, r.summary()};
     }},
    {"rpc",
     [](const ServeConfig& serve, uint32_t conns) {
         apps::RpcHarnessConfig cfg;
         static_cast<ServeConfig&>(cfg) = serve;
         cfg.client.connections = conns;
         cfg.client.requests_per_conn = 3;
         cfg.client.payload_min = 32;
         cfg.client.payload_max = 400;
         cfg.client.methods_mask = 0xf;
         cfg.client.think_mean = sim::microseconds(2);
         cfg.client.seed = 77;
         apps::RpcReport r = apps::run_rpc_scenario(cfg);
         return PairRun{r, r.client_app.aborted == 0, r.summary()};
     }},
};

void
expect_clean(const PairRun& r, const std::string& what)
{
    EXPECT_TRUE(r.frame.ok) << what << ":\n" << r.summary;
    EXPECT_TRUE(r.no_resets) << what;
    EXPECT_TRUE(r.frame.client_quiesced) << what;
    EXPECT_TRUE(r.frame.server_quiesced) << what;
}

std::string
label(const AppPair& pair, FastPathMode mode)
{
    return std::string(pair.name) +
           (mode == FastPathMode::Fld ? " fld" : " cpu");
}

} // namespace

TEST(FastPathDiff, FldSmallWorkload)
{
    FastPathReport r = apps::run_fastpath_scenario(
        small_cfg(FastPathMode::Fld));
    expect_clean(r, "fld");
    EXPECT_EQ(r.accepted, 32u);
    EXPECT_EQ(r.closed, 32u);
    EXPECT_EQ(r.client_bytes, 32u * 4 * 512);
    EXPECT_EQ(r.server_bytes, r.client_bytes);
}

TEST(FastPathDiff, CpuSmallWorkload)
{
    FastPathReport r = apps::run_fastpath_scenario(
        small_cfg(FastPathMode::Cpu));
    expect_clean(r, "cpu");
    EXPECT_EQ(r.accepted, 32u);
    EXPECT_EQ(r.server_bytes, r.client_bytes);
}

TEST(FastPathDiff, FldVsCpuDigestsMatch)
{
    FastPathReport fld = apps::run_fastpath_scenario(
        small_cfg(FastPathMode::Fld));
    FastPathReport cpu = apps::run_fastpath_scenario(
        small_cfg(FastPathMode::Cpu));
    expect_clean(fld, "fld");
    expect_clean(cpu, "cpu");
    EXPECT_EQ(fld.flow_hash, cpu.flow_hash)
        << "fld:\n" << fld.summary() << "cpu:\n" << cpu.summary();
    EXPECT_EQ(fld.server_flows.size(), cpu.server_flows.size());
}

TEST(FastPathDiff, SameSeedRerunIsBitIdentical)
{
    for (FastPathMode mode :
         {FastPathMode::Fld, FastPathMode::Cpu}) {
        FastPathReport a =
            apps::run_fastpath_scenario(small_cfg(mode));
        FastPathReport b =
            apps::run_fastpath_scenario(small_cfg(mode));
        EXPECT_EQ(a.state_hash, b.state_hash)
            << "run A:\n" << a.summary() << "run B:\n" << b.summary();
        EXPECT_EQ(a.end_time, b.end_time);
        EXPECT_EQ(a.client_stats.frames_tx, b.client_stats.frames_tx);
    }
}

TEST(FastPathDiff, TraceCheckerGreenBothModes)
{
    for (const AppPair& pair : kAppPairs) {
        for (FastPathMode mode :
             {FastPathMode::Fld, FastPathMode::Cpu}) {
            ServeConfig serve;
            serve.mode = mode;
            serve.trace = true;
            PairRun r = pair.run(serve, 64);
            expect_clean(r, label(pair, mode));
            EXPECT_TRUE(r.frame.trace_violations.empty())
                << label(pair, mode) << ": "
                << r.frame.trace_violations.size()
                << " trace violations, first: "
                << (r.frame.trace_violations.empty()
                        ? ""
                        : r.frame.trace_violations[0]);
        }
    }
}

TEST(FastPathDiff, ArpResolutionAcrossTestbed)
{
    // No pre-seeded ARP caches: the client stack must resolve the
    // server's MAC over the wire (and vice versa for the SYN-ACK
    // path, where the server learns the client MAC from the SYN).
    for (const AppPair& pair : kAppPairs) {
        for (FastPathMode mode :
             {FastPathMode::Fld, FastPathMode::Cpu}) {
            ServeConfig serve;
            serve.mode = mode;
            serve.preseed_arp = false;
            PairRun r = pair.run(serve, 8);
            expect_clean(r, label(pair, mode));
            EXPECT_GE(r.frame.client_stats.arp_requests, 1u)
                << label(pair, mode);
            EXPECT_GE(r.frame.server_stats.arp_replies_sent, 1u)
                << label(pair, mode);
        }
    }
}

TEST(FastPathDiff, OpenLoopChurnDifferential)
{
    auto churn_cfg = [](FastPathMode mode) {
        FastPathHarnessConfig cfg = small_cfg(mode);
        cfg.app.connections = 24;
        cfg.app.closed_loop = false;
        cfg.app.churn_cycles = 2;
        cfg.app.requests_per_conn = 3;
        cfg.app.request_bytes = 200;
        return cfg;
    };
    FastPathReport fld =
        apps::run_fastpath_scenario(churn_cfg(FastPathMode::Fld));
    FastPathReport cpu =
        apps::run_fastpath_scenario(churn_cfg(FastPathMode::Cpu));
    expect_clean(fld, "fld churn");
    expect_clean(cpu, "cpu churn");
    // 3 incarnations per slot, each on a fresh port.
    EXPECT_EQ(fld.server_flows.size(), 72u);
    EXPECT_EQ(fld.flow_hash, cpu.flow_hash)
        << "fld:\n" << fld.summary() << "cpu:\n" << cpu.summary();
}

// The PR's acceptance scenario: a deterministic 10k-connection
// open/serve/close run under both modes with identical per-flow
// digests and green conservation oracles.
TEST(FastPathDiff, TenThousandConnectionsFldVsCpu)
{
    auto big_cfg = [](FastPathMode mode) {
        FastPathHarnessConfig cfg;
        cfg.mode = mode;
        cfg.app.connections = 10000;
        cfg.app.requests_per_conn = 2;
        cfg.app.request_bytes = 256;
        // Pace the open storm near the testbed's service rate and
        // set the fixed RTO well above the congested RTT — a fixed
        // 200 us RTO under 10k-way concurrency turns queueing delay
        // into spurious go-back-N retransmits and melts down, which
        // is reality for go-back-N, not a bug to paper over.
        cfg.app.open_batch = 64;
        cfg.app.open_interval = sim::microseconds(50);
        cfg.conn.rto = sim::microseconds(2000);
        cfg.conn.max_retries = 16;
        cfg.app.tx_ring_entries = 256;
        cfg.app.rx_ring_entries = 1024;
        cfg.sink.rx_ring_entries = 1024;
        return cfg;
    };
    FastPathReport fld =
        apps::run_fastpath_scenario(big_cfg(FastPathMode::Fld));
    expect_clean(fld, "fld 10k");
    EXPECT_EQ(fld.accepted, 10000u);
    EXPECT_EQ(fld.closed, 10000u);
    EXPECT_EQ(fld.server_bytes, 10000ull * 2 * 256);

    FastPathReport cpu =
        apps::run_fastpath_scenario(big_cfg(FastPathMode::Cpu));
    expect_clean(cpu, "cpu 10k");
    EXPECT_EQ(cpu.accepted, 10000u);

    EXPECT_EQ(fld.flow_hash, cpu.flow_hash)
        << "fld:\n" << fld.summary() << "cpu:\n" << cpu.summary();

    // Same-seed rerun of the FLD side must be bit-identical.
    FastPathReport again =
        apps::run_fastpath_scenario(big_cfg(FastPathMode::Fld));
    EXPECT_EQ(again.state_hash, fld.state_hash);
    EXPECT_EQ(again.end_time, fld.end_time);
}
