/**
 * @file
 * Many-tenant isolation under churn and faults.
 *
 * The control-plane half drives hundreds of shaped tenants x hundreds
 * of flows through the ChurnHarness with control-plane faults
 * injected, and asserts the isolation invariants: every oracle green,
 * per-tenant accounting conserved, no shaped tenant exceeding its
 * token-bucket allowance, no tenant starved, and the tracked memory
 * budget landing exactly on live-flows x 24 B.
 *
 * The datapath half reruns a multi-flow scenario with wire faults
 * through the full FuzzRunner so the packet-level oracles
 * (TraceChecker causal invariants, ConservationLedger) stay green
 * while flow-table tagging is exercised end to end.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/churn_harness.h"
#include "apps/fuzz_runner.h"
#include "sim/fuzz.h"

namespace fld::apps {
namespace {

TEST(TenantIsolation, TwoHundredShapedTenantsUnderChurnAndFaults)
{
    ChurnHarnessConfig cfg;
    cfg.churn.tenants = 200;
    cfg.churn.flows_per_tenant = 500; // 100k live flows
    cfg.churn.packet_fraction = 0.7;
    cfg.churn.skew = 1.5; // elephants exist per construction
    cfg.churn.dup_open_prob = 0.01;
    cfg.churn.stray_close_prob = 0.01;
    cfg.churn.seed = 1717;
    cfg.tenant_rate_gbps = 0.2;
    cfg.tenant_burst_bytes = 16 * 1024;

    ChurnHarness harness(cfg);
    ChurnReport rep = harness.run(/*steady_events=*/400000);

    // All oracles green (shadow map, stat conservation, fault
    // rejection, budget/model reconciliation).
    EXPECT_TRUE(rep.ok()) << (rep.violations.empty()
                                  ? ""
                                  : rep.violations.front());
    EXPECT_GT(rep.faults_injected, 1000u) << "faults must have fired";
    EXPECT_GT(rep.shaped_drops, 0u) << "shaping must have engaged";
    EXPECT_EQ(rep.rejects, 0u) << "well-sized directory never rejects";

    // Isolation: no tenant got more than its shaped allowance.
    double dur_sec = sim::to_sec(rep.end_time);
    double allowance = cfg.tenant_rate_gbps * 1e9 / 8.0 * dur_sec +
                       double(cfg.tenant_burst_bytes) +
                       double(cfg.churn.max_bytes);
    const auto& tenants = harness.directory().tenants();
    uint64_t min_bytes = UINT64_MAX, max_bytes = 0;
    for (uint32_t t = 0; t < cfg.churn.tenants; ++t) {
        EXPECT_LE(double(tenants[t].bytes), allowance)
            << "tenant " << t << " exceeded its shaper";
        min_bytes = std::min(min_bytes, tenants[t].bytes);
        max_bytes = std::max(max_bytes, tenants[t].bytes);
    }
    // Fairness: uniform flow->tenant assignment + per-tenant shaping
    // keeps the spread bounded even with Zipf-skewed packet arrivals.
    EXPECT_GT(min_bytes, 0u) << "a tenant was starved";
    EXPECT_LT(double(max_bytes) / double(min_bytes), 20.0);

    // Budget gauge: exactly live-flows x 24 B in the active category,
    // no underflows, full reconciliation (also checked inside ok()).
    EXPECT_EQ(harness.budget().underflows(), 0u);
    EXPECT_EQ(rep.final_live, harness.directory().size());
}

TEST(TenantIsolation, ChurnDigestIsDeterministic)
{
    ChurnHarnessConfig cfg;
    cfg.churn.tenants = 50;
    cfg.churn.flows_per_tenant = 100;
    cfg.churn.dup_open_prob = 0.02;
    cfg.churn.stray_close_prob = 0.02;
    cfg.churn.seed = 99;
    cfg.tenant_rate_gbps = 0.5;

    ChurnReport a = ChurnHarness(cfg).run(100000);
    ChurnReport b = ChurnHarness(cfg).run(100000);
    EXPECT_TRUE(a.ok());
    EXPECT_EQ(a.state_hash, b.state_hash);
    EXPECT_EQ(a.accepted_bytes, b.accepted_bytes);
    EXPECT_EQ(a.shaped_drops, b.shaped_drops);

    cfg.churn.seed = 100;
    ChurnReport c = ChurnHarness(cfg).run(100000);
    EXPECT_NE(a.state_hash, c.state_hash);
}

TEST(TenantIsolation, DatapathOraclesStayGreenWithFlowsAndFaults)
{
    // Multi-flow echo with wire faults: RSS spreads the flows, the
    // fault plan drops/duplicates frames, and the four FuzzRunner
    // oracles (differential, trace invariants, exactly-once,
    // conservation ledger) must all hold.
    FuzzRunner runner(FuzzRunOptions{});

    sim::FuzzScenario s;
    s.seed = 424242;
    s.workload.packets = 96;
    s.workload.bytes = 512;
    s.workload.flows = 16;
    s.echo_queues = 4;
    s.faults.wire.drop_prob = 0.02;
    s.faults.wire.duplicate_prob = 0.02;
    s.faults.wire.reorder_prob = 0.02;

    FuzzVerdict v = runner.run(s);
    EXPECT_TRUE(v.ok) << v.transcript;
}

} // namespace
} // namespace fld::apps
