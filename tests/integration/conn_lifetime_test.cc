/**
 * @file
 * Per-connection state lives only as long as its connection.
 *
 * Drives 1,000 short RPC connections through the serving harness to
 * completion, then checks that the RPC server, the client pool and
 * both FastPath stacks hold no per-connection entry: Closed and Reset
 * connections are dropped by the apps at once and by the stacks after
 * time-wait (ServeHarness::run runs the queue dry, lingers included).
 * A probe samples the same counts while traffic runs, so the zero at
 * the end is not vacuous.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "apps/rpc_client.h"
#include "apps/rpc_service.h"
#include "apps/serve_harness.h"

namespace fld::apps {
namespace {

struct Peaks
{
    size_t pool = 0, server = 0, client_fp = 0, server_fp = 0;
};

struct Outcome
{
    Peaks peak;
    bool done = false;
    RpcClientStats client;
    RpcServerStats server;
    size_t pool_live = 0, server_live = 0;
    size_t client_fp_live = 0, server_fp_live = 0;
};

Outcome
serve_rpc(const ServeConfig& cfg)
{
    ServeHarness serve(cfg);
    RpcServerConfig server_cfg;
    RpcClientConfig client_cfg;
    client_cfg.connections = 1000;
    client_cfg.requests_per_conn = 2;
    client_cfg.payload_min = 32;
    client_cfg.payload_max = 256;
    client_cfg.think_mean = sim::microseconds(2);
    client_cfg.open_batch = 64;
    client_cfg.seed = 5;
    client_cfg.remote_ip = serve.server().config().ip;
    client_cfg.remote_port = server_cfg.listen_port;
    RpcClientPool pool(serve.eq(), serve.client(), client_cfg);
    RpcServer server(serve.eq(), serve.server(), server_cfg);

    Outcome o;
    std::function<void()> probe = [&] {
        o.peak.pool = std::max(o.peak.pool, pool.live_conns());
        o.peak.server = std::max(o.peak.server, server.live_conns());
        o.peak.client_fp =
            std::max(o.peak.client_fp, serve.client().live_conns());
        o.peak.server_fp =
            std::max(o.peak.server_fp, serve.server().live_conns());
        if (!pool.done())
            serve.eq().schedule_in(sim::microseconds(20), probe);
    };
    serve.run([&] {
        pool.start();
        probe();
    });

    o.done = pool.done();
    o.client = pool.stats();
    o.server = server.stats();
    o.pool_live = pool.live_conns();
    o.server_live = server.live_conns();
    o.client_fp_live = serve.client().live_conns();
    o.server_fp_live = serve.server().live_conns();
    return o;
}

void
expect_nothing_left(const Outcome& o)
{
    EXPECT_TRUE(o.done);
    EXPECT_EQ(o.pool_live, 0u) << "client pool kept finished slots";
    EXPECT_EQ(o.server_live, 0u) << "server kept closed connections";
    EXPECT_EQ(o.client_fp_live, 0u) << "client stack after time-wait";
    EXPECT_EQ(o.server_fp_live, 0u) << "server stack after time-wait";
    // Non-vacuous: many connections were live at once mid-run.
    EXPECT_GT(o.peak.pool, 10u);
    EXPECT_GT(o.peak.server, 10u);
    EXPECT_GT(o.peak.client_fp, 10u);
    EXPECT_GT(o.peak.server_fp, 10u);
}

TEST(ConnLifetime, FaultFreeRunLeavesNoPerConnectionState)
{
    for (FastPathMode mode : {FastPathMode::Fld, FastPathMode::Cpu}) {
        SCOPED_TRACE(mode == FastPathMode::Fld ? "fld" : "cpu");
        ServeConfig cfg;
        cfg.mode = mode;
        Outcome o = serve_rpc(cfg);
        EXPECT_EQ(o.client.closed, 1000u);
        EXPECT_EQ(o.server.closed, 1000u);
        EXPECT_EQ(o.client.responses, 2000u);
        expect_nothing_left(o);
    }
}

TEST(ConnLifetime, ResetConnectionsAreReleasedOnBothSides)
{
    // Heavy loss on one client flow: that connection gives up on both
    // sides after the server accepted it (the Reset path through both
    // apps), every other one closes normally.
    ServeConfig cfg;
    cfg.mode = FastPathMode::Fld;
    cfg.tb.nic.wire_faults.drop_prob = 0.7;
    cfg.tb.fault_seed = 2;
    cfg.fault_target_port = 21003;
    Outcome o = serve_rpc(cfg);
    EXPECT_EQ(o.client.aborted, 1u);
    EXPECT_EQ(o.client.closed, 999u);
    EXPECT_EQ(o.server.accepted, 1000u);
    EXPECT_EQ(o.server.resets, 1u);
    EXPECT_EQ(o.server.closed, 999u);
    expect_nothing_left(o);
}

} // namespace
} // namespace fld::apps
