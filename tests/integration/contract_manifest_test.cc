/**
 * @file
 * Determinism contract, pinned: replays the scenarios listed in
 * contract_manifest.h and requires every transcript hash, trace
 * digest and state hash to equal its recorded value.
 *
 *  - fld_fuzz transcripts for seeds 1-50 of four families (EthEcho,
 *    EthEcho with the pipeline decoration chain, ConnServe,
 *    RpcServe). A transcript folds in every delivered payload digest,
 *    trace hash, counter and oracle verdict of both the FLD and the
 *    CPU run, so any reordering of events or any steering change
 *    moves it.
 *  - Causal trace digests of the four stock echo scenarios (FLD,
 *    CPU RSS spread, VXLAN, MPRQ).
 *  - One fold of the generated scenario dumps of seeds 1-200.
 *  - The serving harnesses' state_hash and flow/digest hash for both
 *    app pairs, FLD- and CPU-served, with ARP pre-seeded, ARP
 *    resolved and targeted wire faults.
 *  - FLD-R runs through the host RDMA client: 1 KiB echo messages,
 *    remote and local, and verified ZUC requests, remote. Each pins
 *    its trace digest, end time and executed event count.
 *  - The churn harness and heavy-hitter sketch state hashes, and the
 *    churn state hashes of `fld_fuzz --churn` seeds 1-50.
 *
 * A mismatch prints the seed (or scenario), expected and actual value.
 */
#include "tests/integration/contract_manifest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "apps/churn_harness.h"
#include "apps/crypto_perf.h"
#include "apps/fastpath_harness.h"
#include "apps/fuzz_dimension.h"
#include "apps/fuzz_runner.h"
#include "apps/rpc_harness.h"
#include "apps/scenarios.h"
#include "fld/sketch.h"
#include "sim/fuzz.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace fld::contract {
namespace {

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

void
expect_pinned(const char* what, uint64_t expected, uint64_t actual)
{
    EXPECT_EQ(expected, actual) << what << ": expected " << hex(expected)
                                << " actual " << hex(actual);
}

// ---------------------------------------------------------------------
// fld_fuzz transcripts
// ---------------------------------------------------------------------

/** Seed's scenario forced into @p family through its fld_fuzz row and
 *  sized down to regression-test budgets. Plain EthEcho is the
 *  pipeline row with the decoration chain switched off. */
sim::FuzzScenario
scenario_for(uint64_t seed, Family family)
{
    static const char* const kRow[kFamilies] = {"pipeline", "pipeline",
                                                "conn", "rpc"};
    sim::FuzzScenario s =
        apps::find_fuzz_dimension(kRow[int(family)])->scenario(seed);
    if (family == Family::EthEcho)
        s.pipeline.enabled = false;
    s.workload.packets = std::min(s.workload.packets, 16u);
    s.conn.connections = std::min(s.conn.connections, 8u);
    s.conn.requests = std::min(s.conn.requests, 2u);
    s.rpc.connections = std::min(s.rpc.connections, 4u);
    s.rpc.requests = std::min(s.rpc.requests, 2u);
    return s;
}

TEST(ContractManifest, FiftySeedTranscriptHashesMatchPinned)
{
    static const char* const kNames[kFamilies] = {
        "EthEcho", "EthEcho+pipeline", "ConnServe", "RpcServe"};
    for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
        for (int f = 0; f < kFamilies; ++f) {
            apps::FuzzVerdict v =
                apps::FuzzRunner{}.run(scenario_for(seed, Family(f)));
            uint64_t want = kTranscriptHash[seed - kFirstSeed][f];
            EXPECT_EQ(want, v.transcript_hash)
                << "seed " << seed << " family " << kNames[f]
                << ": expected " << hex(want) << " actual "
                << hex(v.transcript_hash);
        }
    }
}

TEST(ContractManifest, GeneratedScenarioDumpsMatchPinned)
{
    sim::ScenarioFuzzer fuzzer;
    uint64_t h = sim::kFnvBasis;
    for (uint64_t seed = 1; seed <= kDumpLastSeed; ++seed)
        h = sim::fnv1a64_str(fuzzer.generate(seed).to_string(), h);
    expect_pinned("scenario dump fold", kScenarioDumpFold, h);
}

// ---------------------------------------------------------------------
// Stock echo trace digests
// ---------------------------------------------------------------------

apps::PktGenConfig
small_echo_gen()
{
    apps::PktGenConfig g;
    g.frame_size = 256;
    g.window = 8;
    return g;
}

/** fnv1a64 of the causal trace digest of one echo run. */
template <typename Make>
uint64_t
echo_trace_hash(Make make, apps::EchoOptions opt, apps::PktGenConfig g)
{
    sim::Tracer tr;
    tr.install();
    auto s = make(true, g, apps::TestbedConfig{}, opt);
    s->gen->start(sim::microseconds(10), sim::microseconds(100));
    s->tb->eq.run();
    tr.uninstall();
    EXPECT_GT(tr.events().size(), 100u);
    return sim::fnv1a64_str(tr.digest());
}

uint64_t
fld_echo_trace_hash(apps::EchoOptions opt = {},
                    apps::PktGenConfig g = small_echo_gen())
{
    return echo_trace_hash(
        [](auto&&... a) { return apps::make_fld_echo(a...); }, opt, g);
}

uint64_t
cpu_echo_trace_hash(apps::EchoOptions opt = {},
                    apps::PktGenConfig g = small_echo_gen())
{
    return echo_trace_hash(
        [](auto&&... a) { return apps::make_cpu_echo(a...); }, opt, g);
}

TEST(ContractManifest, EchoTraceDigestsMatchPinned)
{
    expect_pinned("fld echo", kFldEchoTraceHash, fld_echo_trace_hash());

    apps::EchoOptions rss;
    rss.echo_queues = 4;
    apps::PktGenConfig rss_gen = small_echo_gen();
    rss_gen.flows = 8;
    expect_pinned("cpu echo rss spread", kCpuEchoRssSpreadTraceHash,
                  cpu_echo_trace_hash(rss, rss_gen));

    apps::EchoOptions vx;
    vx.vxlan = true;
    apps::PktGenConfig vx_gen = small_echo_gen();
    vx_gen.vxlan = true;
    expect_pinned("vxlan echo", kVxlanEchoTraceHash,
                  fld_echo_trace_hash(vx, vx_gen));

    apps::EchoOptions mprq;
    mprq.driver_base.rx_buffers = 24;
    mprq.driver_base.rx_strides = 16;
    mprq.driver_base.rx_stride_shift = 10;
    expect_pinned("mprq echo", kMprqEchoTraceHash,
                  cpu_echo_trace_hash(mprq));
}

// ---------------------------------------------------------------------
// Serving-harness hashes
// ---------------------------------------------------------------------

constexpr apps::FastPathMode kServeModes[2] = {apps::FastPathMode::Fld,
                                               apps::FastPathMode::Cpu};

apps::FastPathHarnessConfig
byte_stream_cfg(ServeCase c, apps::FastPathMode mode)
{
    apps::FastPathHarnessConfig cfg;
    cfg.mode = mode;
    cfg.app.connections = 32;
    cfg.app.requests_per_conn = 4;
    cfg.app.request_bytes = 512;
    cfg.preseed_arp = c != ServeCase::ResolvedArp;
    if (c == ServeCase::TargetedFaults) {
        cfg.app.connections = 64;
        cfg.app.requests_per_conn = 3;
        cfg.app.request_bytes = 256;
        cfg.tb.nic.wire_faults.drop_prob = 0.25;
        cfg.tb.nic.wire_faults.reorder_prob = 0.15;
        cfg.tb.nic.wire_faults.duplicate_prob = 0.10;
        cfg.fault_target_port = 20013;
    }
    return cfg;
}

apps::RpcHarnessConfig
rpc_cfg(ServeCase c, apps::FastPathMode mode)
{
    apps::RpcHarnessConfig cfg;
    cfg.mode = mode;
    cfg.client.connections = 16;
    cfg.client.requests_per_conn = 3;
    cfg.client.payload_min = 32;
    cfg.client.payload_max = 400;
    cfg.client.methods_mask = 0xf;
    cfg.client.think_mean = sim::microseconds(2);
    cfg.client.seed = 77;
    cfg.preseed_arp = c != ServeCase::ResolvedArp;
    if (c == ServeCase::TargetedFaults) {
        cfg.tb.nic.wire_faults.drop_prob = 0.25;
        cfg.tb.nic.wire_faults.reorder_prob = 0.15;
        cfg.tb.nic.wire_faults.duplicate_prob = 0.10;
        cfg.tb.fault_seed = 0xfa17;
        cfg.fault_target_port = 21003;
    }
    return cfg;
}

void
expect_serve_pin(const char* pair, int c, int m, const ServePin& want,
                 bool ok, uint64_t state_hash, uint64_t app_hash)
{
    static const char* const kCases[kServeCases] = {
        "preseeded-arp", "resolved-arp", "targeted-faults"};
    std::string what = std::string(pair) + " " + kCases[c] +
                       (m == 0 ? " fld" : " cpu");
    EXPECT_TRUE(ok) << what;
    expect_pinned((what + " state_hash").c_str(), want.state_hash,
                  state_hash);
    expect_pinned((what + " app hash").c_str(), want.app_hash, app_hash);
}

TEST(ContractManifest, ServeHarnessHashesMatchPinned)
{
    for (int c = 0; c < kServeCases; ++c) {
        for (int m = 0; m < 2; ++m) {
            apps::FastPathReport fp = apps::run_fastpath_scenario(
                byte_stream_cfg(ServeCase(c), kServeModes[m]));
            expect_serve_pin("byte-stream", c, m,
                             kByteStreamServePin[c][m], fp.ok,
                             fp.state_hash, fp.flow_hash);
            apps::RpcReport rpc = apps::run_rpc_scenario(
                rpc_cfg(ServeCase(c), kServeModes[m]));
            expect_serve_pin("rpc", c, m, kRpcServePin[c][m], rpc.ok,
                             rpc.state_hash, rpc.digest_hash);
        }
    }
}

// ---------------------------------------------------------------------
// FLD-R runs
// ---------------------------------------------------------------------

/** Post 1 KiB echo messages at 8 Gbps for 3 ms, long enough to wrap
 *  the client's send ring and receive buffers; every one must come
 *  back. */
void
run_fldr_echo(apps::FldrScenario& s)
{
    constexpr size_t kMsg = 1024;
    sim::EventQueue& eq = s.tb->eq;
    sim::TimePs end = eq.now() + sim::milliseconds(3);
    sim::TimePs gap = sim::serialize_time(kMsg, 8.0);
    uint32_t sent = 0, received = 0;
    s.client->set_msg_handler(
        [&](uint32_t, std::vector<uint8_t>&& msg) {
            EXPECT_EQ(msg.size(), kMsg);
            ++received;
        });
    std::function<void()> tick = [&] {
        if (eq.now() >= end)
            return;
        ++sent;
        s.client->post_send(std::vector<uint8_t>(kMsg, uint8_t(sent)),
                            sent);
        eq.schedule_in(gap, tick);
    };
    tick();
    eq.run();
    EXPECT_GT(sent, 2900u);
    EXPECT_EQ(received, sent);
}

FldrPin
fldr_pin(FldrCase c)
{
    sim::Tracer tr;
    tr.install();
    std::unique_ptr<apps::FldrScenario> s;
    if (c == FldrCase::ZucRemote) {
        s = apps::make_fldr_zuc(true);
        apps::CryptoPerfConfig cfg;
        cfg.request_payload = 512;
        cfg.window = 8;
        cfg.verify = true;
        apps::CryptoPerfClient perf(s->tb->eq, *s->client, cfg);
        perf.start(sim::microseconds(20), sim::milliseconds(1));
        s->tb->eq.run();
        EXPECT_GT(perf.verified_ok(), 500u);
        EXPECT_EQ(perf.verified_bad(), 0u);
    } else {
        s = apps::make_fldr_echo(c == FldrCase::EchoRemote);
        run_fldr_echo(*s);
    }
    tr.uninstall();
    return {sim::fnv1a64_str(tr.digest()), s->tb->eq.now(),
            s->tb->eq.executed_total()};
}

TEST(ContractManifest, FldrRunsMatchPinned)
{
    static const char* const kCases[kFldrCases] = {
        "fldr echo remote", "fldr echo local", "fldr zuc remote"};
    for (int c = 0; c < kFldrCases; ++c) {
        FldrPin got = fldr_pin(FldrCase(c));
        std::string what = kCases[c];
        expect_pinned((what + " trace").c_str(), kFldrPin[c].trace_hash,
                      got.trace_hash);
        expect_pinned((what + " end_ps").c_str(), kFldrPin[c].end_ps,
                      got.end_ps);
        expect_pinned((what + " events").c_str(), kFldrPin[c].events,
                      got.events);
    }
}

// ---------------------------------------------------------------------
// Control-plane state hashes
// ---------------------------------------------------------------------

TEST(ContractManifest, StateHashesMatchPinned)
{
    apps::ChurnHarnessConfig cfg;
    cfg.churn.tenants = 50;
    cfg.churn.flows_per_tenant = 100;
    cfg.churn.dup_open_prob = 0.02;
    cfg.churn.stray_close_prob = 0.02;
    cfg.churn.seed = 99;
    cfg.tenant_rate_gbps = 0.5;
    apps::ChurnReport rep = apps::ChurnHarness(cfg).run(100000);
    EXPECT_TRUE(rep.ok());
    expect_pinned("churn state_hash", kChurnStateHash, rep.state_hash);

    core::HeavyHitterSketch sketch(core::SketchConfig{
        .width = 1024, .depth = 4, .topk = 16, .seed = 0x1234});
    fld::Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        // Skewed keys: a few heavy hitters over a long tail.
        uint64_t key = rng.chance(0.3) ? rng.uniform(8)
                                       : 1000 + rng.uniform(5000);
        sketch.update(key, 1 + rng.uniform(1500));
    }
    expect_pinned("sketch state_hash", kSketchStateHash,
                  sketch.state_hash());
}

TEST(ContractManifest, ChurnSeedStateHashesMatchPinned)
{
    for (uint64_t seed = 1; seed <= kChurnLastSeed; ++seed) {
        apps::ChurnReport rep = apps::run_churn(apps::churn_scenario(seed));
        EXPECT_TRUE(rep.ok()) << "churn seed " << seed;
        uint64_t want = kChurnSeedStateHash[seed - 1];
        EXPECT_EQ(want, rep.state_hash)
            << "churn seed " << seed << ": expected " << hex(want)
            << " actual " << hex(rep.state_hash);
    }
}

} // namespace
} // namespace fld::contract
