/**
 * @file
 * ChurnGen stream properties: determinism, ramp behaviour, steady-state
 * population stability, fault injection and skew.
 */
#include "sim/churn.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <unordered_set>

namespace fld::sim {
namespace {

TEST(ChurnGen, SameSeedSameStream)
{
    ChurnConfig cfg{.tenants = 16,
                    .flows_per_tenant = 32,
                    .dup_open_prob = 0.01,
                    .stray_close_prob = 0.01,
                    .seed = 42};
    ChurnGen a(cfg), b(cfg);
    for (int i = 0; i < 20000; ++i) {
        ChurnEvent ea = a.next(), eb = b.next();
        ASSERT_EQ(ea.time, eb.time);
        ASSERT_EQ(ea.op, eb.op);
        ASSERT_EQ(ea.key, eb.key);
        ASSERT_EQ(ea.tenant, eb.tenant);
        ASSERT_EQ(ea.bytes, eb.bytes);
        ASSERT_EQ(ea.fault, eb.fault);
    }
    ChurnGen c({.tenants = 16, .flows_per_tenant = 32, .seed = 43});
    bool diverged = false;
    a = ChurnGen(cfg);
    for (int i = 0; i < 2000 && !diverged; ++i)
        diverged = a.next().key != c.next().key;
    EXPECT_TRUE(diverged) << "different seeds produced equal streams";
}

TEST(ChurnGen, RampOpensEveryTenantToQuota)
{
    ChurnConfig cfg{.tenants = 32, .flows_per_tenant = 64, .seed = 7};
    ChurnGen gen(cfg);
    std::map<uint16_t, uint64_t> per_tenant;
    std::unordered_set<uint64_t> keys;
    while (!gen.ramp_done()) {
        ChurnEvent ev = gen.next();
        ASSERT_EQ(ev.op, ChurnOp::Open);
        ASSERT_FALSE(ev.fault);
        ASSERT_TRUE(keys.insert(ev.key).second) << "duplicate key";
        per_tenant[ev.tenant]++;
    }
    EXPECT_EQ(keys.size(), gen.target_population());
    ASSERT_EQ(per_tenant.size(), 32u);
    for (const auto& [t, n] : per_tenant)
        EXPECT_EQ(n, 64u) << "tenant " << t;
}

TEST(ChurnGen, SteadyStateKeepsPopulationAndTimeMonotonic)
{
    ChurnConfig cfg{.tenants = 8, .flows_per_tenant = 128, .seed = 3};
    ChurnGen gen(cfg);
    while (!gen.ramp_done())
        gen.next();
    size_t target = gen.target_population();
    TimePs last = 0;
    uint64_t packets = 0, opens = 0, closes = 0;
    for (int i = 0; i < 50000; ++i) {
        ChurnEvent ev = gen.next();
        ASSERT_GT(ev.time, last);
        last = ev.time;
        if (ev.op == ChurnOp::Packet) {
            packets++;
            ASSERT_GE(ev.bytes, kChurnMinBytes);
            ASSERT_LE(ev.bytes, cfg.max_bytes);
        } else if (ev.op == ChurnOp::Open) {
            opens++;
        } else {
            closes++;
        }
        // Population never drifts more than one flow from target.
        ASSERT_LE(gen.live(), target + 1);
        ASSERT_GE(gen.live() + 1, target);
    }
    // The packet fraction holds to within a few percent.
    double frac = double(packets) / 50000.0;
    EXPECT_NEAR(frac, cfg.packet_fraction, 0.03);
    EXPECT_NEAR(double(opens), double(closes), 0.1 * double(opens));
}

TEST(ChurnGen, FaultsAreMarkedAndBounded)
{
    ChurnConfig cfg{.tenants = 8,
                    .flows_per_tenant = 64,
                    .dup_open_prob = 0.05,
                    .stray_close_prob = 0.05,
                    .seed = 9};
    ChurnGen gen(cfg);
    std::unordered_set<uint64_t> opened;
    while (!gen.ramp_done())
        opened.insert(gen.next().key);
    uint64_t dup = 0, stray = 0;
    for (int i = 0; i < 40000; ++i) {
        ChurnEvent ev = gen.next();
        if (!ev.fault) {
            if (ev.op == ChurnOp::Open)
                opened.insert(ev.key);
            continue;
        }
        if (ev.op == ChurnOp::Open) {
            dup++;
            EXPECT_TRUE(opened.count(ev.key))
                << "dup-open fault targeted an unknown key";
        } else {
            stray++;
            EXPECT_FALSE(opened.count(ev.key))
                << "stray-close fault hit a real key";
        }
    }
    EXPECT_NEAR(double(dup), 40000 * 0.05, 40000 * 0.05 * 0.25);
    EXPECT_NEAR(double(stray), 40000 * 0.05, 40000 * 0.05 * 0.25);
}

TEST(ChurnGen, SkewConcentratesPacketsOnFewFlows)
{
    ChurnConfig cfg{.tenants = 4,
                    .flows_per_tenant = 256,
                    .skew = 1.5,
                    .seed = 21};
    ChurnGen gen(cfg);
    while (!gen.ramp_done())
        gen.next();
    std::unordered_map<uint64_t, uint64_t> hits;
    uint64_t packets = 0;
    for (int i = 0; i < 100000; ++i) {
        ChurnEvent ev = gen.next();
        if (ev.op == ChurnOp::Packet) {
            hits[ev.key]++;
            packets++;
        }
    }
    // Heaviest single flow takes a disproportionate share: with 1024
    // live flows, uniform would be ~0.1% (churn replaces low-rank
    // flows over time, so the concentration is diluted but still an
    // order of magnitude above uniform).
    uint64_t max_hits = 0;
    for (const auto& [k, n] : hits)
        max_hits = std::max(max_hits, n);
    EXPECT_GT(double(max_hits) / double(packets), 0.01);
}

} // namespace
} // namespace fld::sim
