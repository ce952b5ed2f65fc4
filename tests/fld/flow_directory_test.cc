/**
 * @file
 * FlowDirectory facade tests: open/close/record semantics against a
 * shadow oracle, O(1) per-tenant stats, shard distribution, budget
 * registration/release, sketch wiring, and the model reconciliation.
 */
#include "fld/flow_directory.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace fld::core {
namespace {

TEST(FlowDirectory, OpenRecordCloseLifecycle)
{
    FlowDirectory d({.flow_capacity = 256, .tenants = 4});
    EXPECT_TRUE(d.open_flow(100, 1));
    EXPECT_TRUE(d.record(100, 1500));
    EXPECT_TRUE(d.record(100, 64));
    auto info = d.find(100);
    ASSERT_TRUE(info);
    EXPECT_EQ(info->tenant, 1);
    EXPECT_EQ(info->packets, 2u);
    EXPECT_EQ(info->bytes, 1564u);
    EXPECT_EQ(d.tenant(1).flows_open, 1u);
    EXPECT_EQ(d.tenant(1).bytes, 1564u);

    EXPECT_TRUE(d.close_flow(100));
    EXPECT_FALSE(d.find(100));
    EXPECT_EQ(d.size(), 0u);
    EXPECT_EQ(d.tenant(1).flows_open, 0u);
    EXPECT_EQ(d.tenant(1).flows_closed, 1u);
    // Closed-flow history survives in the tenant aggregate.
    EXPECT_EQ(d.tenant(1).bytes, 1564u);
}

TEST(FlowDirectory, RejectsDuplicatesAndUnknowns)
{
    FlowDirectory d({.flow_capacity = 64, .tenants = 2});
    EXPECT_TRUE(d.open_flow(7, 0));
    EXPECT_FALSE(d.open_flow(7, 0));
    EXPECT_EQ(d.stats().duplicate_opens, 1u);
    EXPECT_FALSE(d.close_flow(8));
    EXPECT_EQ(d.stats().unknown_closes, 1u);
    EXPECT_FALSE(d.record(8, 100));
    EXPECT_EQ(d.size(), 1u);
}

TEST(FlowDirectory, RecordAutoOpensOnFirstSight)
{
    FlowDirectory d({.flow_capacity = 64, .tenants = 8});
    EXPECT_TRUE(d.record_auto(1, 3, 100));
    EXPECT_TRUE(d.record_auto(1, 3, 100));
    EXPECT_EQ(d.stats().auto_opens, 1u);
    auto info = d.find(1);
    ASSERT_TRUE(info);
    EXPECT_EQ(info->packets, 2u);
    EXPECT_EQ(d.tenant(3).flows_opened, 1u);
}

TEST(FlowDirectory, ChurnMatchesShadowOracle)
{
    FlowDirectory d({.flow_capacity = 4096, .tenants = 16});
    struct ShadowFlow
    {
        uint16_t tenant;
        uint64_t packets = 0, bytes = 0;
    };
    std::unordered_map<uint64_t, ShadowFlow> shadow;
    std::vector<uint64_t> live;
    fld::Rng rng(2026);

    for (int op = 0; op < 60000; ++op) {
        uint32_t dice = uint32_t(rng.uniform(100));
        if (live.empty() || (dice < 30 && d.size() < d.capacity())) {
            uint64_t k = rng.next();
            if (shadow.count(k))
                continue;
            uint16_t t = uint16_t(rng.uniform(16));
            if (d.open_flow(k, t)) {
                shadow.emplace(k, ShadowFlow{t});
                live.push_back(k);
            }
        } else if (dice < 45) {
            size_t i = rng.uniform(live.size());
            ASSERT_TRUE(d.close_flow(live[i]));
            shadow.erase(live[i]);
            live[i] = live.back();
            live.pop_back();
        } else {
            size_t i = rng.uniform(live.size());
            uint32_t bytes = uint32_t(64 + rng.uniform(1400));
            ASSERT_TRUE(d.record(live[i], bytes));
            shadow[live[i]].packets++;
            shadow[live[i]].bytes += bytes;
        }
    }

    ASSERT_EQ(d.size(), shadow.size());
    uint64_t total_bytes = 0;
    for (const auto& [k, sf] : shadow) {
        auto info = d.find(k);
        ASSERT_TRUE(info) << "flow " << k << " lost";
        EXPECT_EQ(info->tenant, sf.tenant);
        EXPECT_EQ(info->packets, sf.packets);
        EXPECT_EQ(info->bytes, sf.bytes);
        total_bytes += sf.bytes;
    }
    // Tenant aggregates include closed flows; totals tie out against
    // the directory-wide counters.
    uint64_t open_per_tenant = 0;
    for (const auto& ts : d.tenants())
        open_per_tenant += ts.flows_open;
    EXPECT_EQ(open_per_tenant, d.size());
    EXPECT_EQ(d.stats().opens, d.stats().closes + d.size());
}

TEST(FlowDirectory, ShardingSpreadsFlowsEvenly)
{
    FlowDirectory d({.flow_capacity = 64 * 1024});
    ASSERT_EQ(d.config().shards, 4u); // 64k/16k, auto-resolved
    fld::Rng rng(5);
    for (size_t i = 0; i < 32 * 1024; ++i)
        ASSERT_TRUE(d.open_flow(rng.next(), 0));
    size_t min_s = SIZE_MAX, max_s = 0;
    for (uint32_t s = 0; s < d.config().shards; ++s) {
        min_s = std::min(min_s, d.shard_size(s));
        max_s = std::max(max_s, d.shard_size(s));
    }
    // Uniform hashing: no shard may be more than 10% off the mean.
    EXPECT_LT(double(max_s - min_s), 0.1 * 32.0 * 1024 / 4);
}

TEST(FlowDirectory, FullCapacityReachableDespiteSharding)
{
    // The 12.5% per-shard slack must absorb hash imbalance: nominal
    // capacity is always reachable with random keys.
    FlowDirectory d({.flow_capacity = 16384, .shards = 8});
    fld::Rng rng(11);
    for (uint64_t i = 0; i < d.capacity(); ++i)
        ASSERT_TRUE(d.open_flow(rng.next(), uint16_t(i % 64)))
            << "rejected at " << i << " of " << d.capacity();
    EXPECT_EQ(d.size(), d.capacity());
}

TEST(FlowDirectory, BudgetAttachAndRelease)
{
    MemBudget b;
    {
        FlowDirectory d({.flow_capacity = 1024, .tenants = 8});
        d.attach_budget(b);
        EXPECT_EQ(b.total(), d.memory_bytes());
        EXPECT_GT(b.of("flow xlt (cuckoo, sharded)"), 0u);
        EXPECT_GT(b.of("flow state pool (24 B/flow)"), 0u);
        EXPECT_GT(b.of("flow heavy-hitter sketch"), 0u);
        // Re-attach releases the previous registration first.
        d.attach_budget(b);
        EXPECT_EQ(b.total(), d.memory_bytes());
    }
    // Directory teardown releases everything.
    EXPECT_EQ(b.total(), 0u);
    EXPECT_EQ(b.underflows(), 0u);
}

TEST(FlowDirectory, ReconcilesWithMemoryModel)
{
    for (uint64_t flows : {1024ull, 65536ull, 262144ull}) {
        FlowDirectory d({.flow_capacity = flows});
        EXPECT_EQ(d.reconcile_with_model(), "")
            << "at " << flows << " flows";
    }
    // Sketch-less geometry reconciles too.
    FlowDirectory plain(
        {.flow_capacity = 4096, .sketch_enabled = false});
    EXPECT_EQ(plain.reconcile_with_model(), "");
}

TEST(FlowDirectory, SketchSeesRecordedBytes)
{
    FlowDirectory d({.flow_capacity = 256, .tenants = 2});
    ASSERT_TRUE(d.open_flow(42, 0));
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(d.record(42, 1000));
    ASSERT_NE(d.sketch(), nullptr);
    EXPECT_GE(d.sketch()->estimate(42), 100000u);
    auto top = d.sketch()->top();
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top[0].key, 42u);
}

TEST(FlowDirectory, DisabledSketchReportsNull)
{
    FlowDirectory d({.flow_capacity = 64, .sketch_enabled = false});
    EXPECT_EQ(d.sketch(), nullptr);
    ASSERT_TRUE(d.open_flow(1, 0));
    EXPECT_TRUE(d.record(1, 64)); // must not touch sketch state
}

} // namespace
} // namespace fld::core
