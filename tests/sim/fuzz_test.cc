/**
 * @file
 * Unit tests for the scenario fuzzer: generator purity and envelope,
 * greedy shrinking behavior, and the conservation ledger used by
 * oracle (d).
 */
#include "sim/fuzz.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/stats.h"

namespace fld::sim {
namespace {

TEST(ScenarioFuzzerTest, GeneratorIsPure)
{
    ScenarioFuzzer a, b;
    for (uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
        FuzzScenario s1 = a.generate(seed);
        FuzzScenario s2 = a.generate(seed);
        FuzzScenario s3 = b.generate(seed);
        EXPECT_EQ(s1.to_string(), s2.to_string()) << "seed " << seed;
        EXPECT_EQ(s1.to_string(), s3.to_string()) << "seed " << seed;
        EXPECT_EQ(s1.seed, seed);
    }
}

TEST(ScenarioFuzzerTest, GeneratedScenariosStayInEnvelope)
{
    ScenarioFuzzer fuzzer;
    for (uint64_t seed = 0; seed < 300; ++seed) {
        FuzzScenario s = fuzzer.generate(seed);
        SCOPED_TRACE("seed " + std::to_string(seed));

        EXPECT_GE(s.workload.packets, 1u);
        EXPECT_LE(s.workload.packets, 200u);
        EXPECT_TRUE(s.mtu == 512 || s.mtu == 1024 || s.mtu == 1500);
        if (s.workload.imc_mix) {
            // The IMC mixture draws sizes itself and needs a full MTU.
            EXPECT_EQ(s.workload.bytes, 0u);
            EXPECT_EQ(s.mtu, 1500u);
        } else if (s.workload.mode == FuzzMode::EthEcho ||
                   s.workload.mode == FuzzMode::RdmaEcho) {
            // Conn-serve and rpc-serve flip imc_mix off without
            // re-drawing bytes — the eth size knobs are inert there
            // (ConnWorkload / RpcWorkload drive those harnesses) — so
            // the floor only binds for eth/RDMA.
            EXPECT_GE(s.workload.bytes, 64u);
            EXPECT_LE(s.workload.bytes, s.mtu);
        }
        EXPECT_GE(s.workload.flows, 1u);
        EXPECT_LE(s.workload.flows, 16u);
        if (s.workload.window == 0)
            EXPECT_GT(s.workload.offered_gbps, 0.0);
        else
            EXPECT_EQ(s.workload.offered_gbps, 0.0);

        EXPECT_GE(s.echo_queues, 1u);
        EXPECT_LE(s.echo_queues, 4u);
        if (s.rx_buffers) {
            // Each buffer must hold a full frame (strides may be
            // smaller — that's MPRQ), and each queue's footprint
            // must fit the 32 MiB driver arenas.
            EXPECT_GE(uint32_t(s.rx_strides) << s.rx_stride_shift,
                      s.mtu + 64);
            EXPECT_LE(uint64_t(s.rx_buffers) * s.rx_strides *
                          (1ull << s.rx_stride_shift),
                      4ull << 20);
        }

        if (s.workload.mode == FuzzMode::RdmaEcho) {
            EXPECT_FALSE(s.workload.imc_mix);
            EXPECT_EQ(s.workload.flows, 1u);
            EXPECT_GE(s.workload.window, 1u);
            EXPECT_LE(s.workload.window, 16u);
            EXPECT_LE(s.workload.bytes, 1024u);
            EXPECT_FALSE(s.vxlan);
            EXPECT_EQ(s.shaper_gbps, 0.0);
            EXPECT_FALSE(s.faults.accel.enabled());
        }

        // Every seed carries conn draws (so --conn can force-serve
        // any seed); the shape must stay inside the harness envelope.
        EXPECT_GE(s.conn.connections, 1u);
        EXPECT_LE(s.conn.connections, 48u);
        EXPECT_GE(s.conn.requests, 1u);
        EXPECT_LE(s.conn.requests, 6u);
        EXPECT_GE(s.conn.request_bytes, 16u);
        EXPECT_LE(s.conn.request_bytes, 1024u);
        EXPECT_LE(s.conn.churn_cycles, 1u);
        EXPECT_TRUE(s.conn.rto_us == 200 || s.conn.rto_us == 500);
        if (s.conn.fault_target_port) {
            EXPECT_GE(s.conn.fault_target_port, 20000u);
            EXPECT_LT(s.conn.fault_target_port,
                      20000u + s.conn.connections);
        }
        if (s.workload.mode == FuzzMode::ConnServe) {
            // The serve flip clamps knobs the harness doesn't model.
            EXPECT_FALSE(s.workload.imc_mix);
            EXPECT_EQ(s.workload.flows, 1u);
            EXPECT_FALSE(s.vxlan);
            EXPECT_EQ(s.shaper_gbps, 0.0);
        }

        // The dump must round-trip every decision: non-empty and
        // seed-stamped so a report is replayable from one number.
        EXPECT_NE(s.to_string().find("seed = "), std::string::npos);
        EXPECT_FALSE(s.summary().empty());
    }
}

TEST(ScenarioFuzzerTest, DistinctSeedsExploreTheSpace)
{
    ScenarioFuzzer fuzzer;
    std::set<std::string> dumps;
    for (uint64_t seed = 0; seed < 100; ++seed)
        dumps.insert(fuzzer.generate(seed).to_string());
    // Collisions would mean whole knob groups are being ignored.
    EXPECT_GT(dumps.size(), 90u);
}

TEST(ScenarioShrinkerTest, ReducesPacketCountToThreshold)
{
    ScenarioFuzzer fuzzer;
    FuzzScenario failing = fuzzer.generate(123);
    failing.workload.packets = 200;

    // Synthetic failure: anything with >= 5 packets "fails".
    ScenarioShrinker shrinker(
        [](const FuzzScenario& s) { return s.workload.packets >= 5; });
    ShrinkResult res = shrinker.shrink(failing);

    EXPECT_EQ(res.scenario.workload.packets, 5u);
    EXPECT_GT(res.accepted_mutations, 0u);
    EXPECT_LE(res.predicate_runs, 300u);
}

TEST(ScenarioShrinkerTest, IsolatesTheFaultClassThatMatters)
{
    FuzzScenario failing;
    failing.workload.packets = 64;
    failing.workload.flows = 8;
    failing.vxlan = true;
    failing.vni = 7;
    failing.cqe_compression = true;
    failing.faults.seed = 99;
    failing.faults.wire.drop_prob = 0.02;
    failing.faults.pcie.read_delay_prob = 0.05;
    failing.faults.accel.stall_prob = 0.03;
    failing.faults.accel.stall_time = microseconds(2);

    // Only the wire drop is load-bearing for this "bug".
    ScenarioShrinker shrinker([](const FuzzScenario& s) {
        return s.faults.wire.drop_prob > 0;
    });
    ShrinkResult res = shrinker.shrink(failing);

    EXPECT_GT(res.scenario.faults.wire.drop_prob, 0.0);
    EXPECT_FALSE(res.scenario.faults.pcie.enabled());
    EXPECT_FALSE(res.scenario.faults.accel.enabled());
    EXPECT_FALSE(res.scenario.vxlan);
    EXPECT_FALSE(res.scenario.cqe_compression);
    EXPECT_EQ(res.scenario.workload.packets, 1u);
    EXPECT_EQ(res.scenario.workload.flows, 1u);
}

TEST(ScenarioShrinkerTest, RespectsPredicateRunBudget)
{
    ScenarioFuzzer fuzzer;
    FuzzScenario failing = fuzzer.generate(7);
    failing.workload.packets = 200;

    ScenarioShrinker shrinker([](const FuzzScenario&) { return true; },
                              /*max_predicate_runs=*/3);
    ShrinkResult res = shrinker.shrink(failing);
    EXPECT_LE(res.predicate_runs, 3u);
}

TEST(ScenarioShrinkerTest, KeepsTheFailureFailing)
{
    // The returned scenario must itself satisfy the predicate — the
    // shrinker never hands back a passing scenario.
    ScenarioFuzzer fuzzer;
    FuzzScenario failing = fuzzer.generate(55);
    failing.workload.packets = 100;
    auto pred = [](const FuzzScenario& s) {
        return s.workload.packets >= 3 && s.workload.bytes >= 64;
    };
    ASSERT_TRUE(pred(failing));
    ShrinkResult res = ScenarioShrinker(pred).shrink(failing);
    EXPECT_TRUE(pred(res.scenario));
}

TEST(ScenarioShrinkerTest, SizeIndependentFailureReachesAFixpoint)
{
    // The failure needs three packets and nothing else, frame size
    // included: every natural echo seed must settle well inside the
    // budget instead of flipping between full-MTU and minimal frames.
    ScenarioFuzzer fuzzer;
    auto pred = [](const FuzzScenario& s) {
        return s.workload.packets >= 3;
    };
    int echo_seeds = 0;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        FuzzScenario failing = fuzzer.generate(seed);
        bool echo = failing.workload.mode == FuzzMode::EthEcho;
        if (!echo || !pred(failing))
            continue;
        ++echo_seeds;
        ShrinkResult res = ScenarioShrinker(pred).shrink(failing);
        EXPECT_LT(res.predicate_runs, 300u) << "seed " << seed;
        EXPECT_EQ(res.scenario.workload.packets, 3u) << "seed " << seed;
        EXPECT_EQ(res.scenario.workload.bytes, 64u) << "seed " << seed;
    }
    EXPECT_GT(echo_seeds, 50);
}

/** @p candidate with the fields @p mode's runner reads copied back
 *  from @p original: equal to @p original iff the shrinker left every
 *  field that runner ignores alone. */
FuzzScenario
restore_read_fields(FuzzScenario candidate, const FuzzScenario& original,
                    FuzzMode mode)
{
    candidate.faults = original.faults;
    candidate.conn.fault_target_port = original.conn.fault_target_port;
    if (mode == FuzzMode::ConnServe) {
        candidate.conn = original.conn;
    } else {
        candidate.rpc = original.rpc;
        candidate.conn.rto_us = original.conn.rto_us;
    }
    return candidate;
}

TEST(ScenarioShrinkerTest, ServeShrinksTouchOnlyFieldsTheirRunnerReads)
{
    // Connection-count failures on seeds forced to ConnServe/RpcServe:
    // the mode's passes must reach a fixpoint under budget and never
    // propose a mutation the TCP-side runner cannot see.
    ScenarioFuzzer fuzzer;
    for (FuzzMode mode : {FuzzMode::ConnServe, FuzzMode::RpcServe}) {
        for (uint64_t seed = 1; seed <= 50; ++seed) {
            FuzzScenario failing = fuzzer.generate(seed);
            failing.workload.mode = mode;
            auto conns = [mode](const FuzzScenario& s) {
                return mode == FuzzMode::ConnServe ? s.conn.connections
                                                   : s.rpc.connections;
            };
            if (conns(failing) < 2)
                continue;
            SCOPED_TRACE(std::string(to_string(mode)) + " seed " +
                         std::to_string(seed));
            const std::string original = failing.to_string();
            ShrinkResult res =
                ScenarioShrinker(
                    [&](const FuzzScenario& s) {
                        EXPECT_EQ(restore_read_fields(s, failing, mode)
                                      .to_string(),
                                  original);
                        return conns(s) >= 2;
                    },
                    shrink_passes(failing))
                    .shrink(failing);
            EXPECT_LT(res.predicate_runs, 300u);
            EXPECT_LE(conns(res.scenario), 3u);
        }
    }
}

TEST(ConservationLedgerTest, BalancedLedgerPasses)
{
    ConservationLedger l;
    l.tx = 100;
    l.rx = 90;
    l.accounted_losses = 7;
    l.in_flight = 3;
    EXPECT_EQ(l.check(), "");
}

TEST(ConservationLedgerTest, VanishedFramesAreFlagged)
{
    ConservationLedger l;
    l.tx = 100;
    l.rx = 90; // 10 frames missing, nothing accounts for them
    EXPECT_NE(l.check(), "");
}

TEST(ConservationLedgerTest, ConjuredFramesAreFlagged)
{
    ConservationLedger l;
    l.tx = 10;
    l.rx = 12; // more out than in, with no duplication recorded
    EXPECT_NE(l.check(), "");
}

TEST(ConservationLedgerTest, DuplicatesMayInflateRx)
{
    ConservationLedger l;
    l.tx = 10;
    l.rx = 12;
    l.duplicates = 2;
    EXPECT_EQ(l.check(), "");
}

} // namespace
} // namespace fld::sim
