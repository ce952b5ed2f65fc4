/**
 * @file
 * Golden behaviour of receive steering through the compiled pipeline
 * program (nic/pipeline.h).
 *
 * `Pipeline::config_from(FlowTables)` is the *default program* the NIC
 * steers with. Its frame-by-frame RQ choices, per-tenant tag
 * statistics and counters are checked against independent oracles
 * (Toeplitz RSS over the — inner, for VXLAN — tuple; per-frame tag
 * bookkeeping), and the causal trace digests of the golden echo
 * scenarios (FLD, RSS spread, VXLAN decap, MPRQ geometry) against the
 * values pinned in tests/integration/contract_manifest.h. The
 * programmable-only actions (NAT rewrite, VIP select, ACL deny) are
 * exercised on the datapath through explicitly installed programs.
 */
#include "nic/pipeline.h"

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "apps/scenarios.h"
#include "net/headers.h"
#include "net/toeplitz.h"
#include "nic/nic.h"
#include "sim/fuzz.h"
#include "sim/trace.h"
#include "tests/integration/contract_manifest.h"
#include "tests/nic/nic_test_fixture.h"
#include "util/rng.h"

namespace fld::nic {
namespace {

using net::ipv4_addr;
using apps::EchoOptions;
using apps::PktGenConfig;
using namespace fld::nic::testing;

/** Random UDP frame drawn from @p rng (tuple, length, bytes). */
net::Packet
random_udp(fld::Rng& rng)
{
    uint16_t sport = uint16_t(1 + rng.uniform(65534));
    uint16_t dport = uint16_t(1 + rng.uniform(65534));
    std::vector<uint8_t> payload(1 + rng.uniform(1200));
    for (auto& b : payload)
        b = uint8_t(rng.next());
    return net::PacketBuilder()
        .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
        .ipv4(uint32_t(rng.next()), uint32_t(rng.next()),
              net::kIpProtoUdp, uint16_t(rng.uniform(0x10000)))
        .udp(sport, dport)
        .payload(payload)
        .build();
}

/** One NIC testbed with a 4-queue TIR and an rx-delivery recorder. */
struct SteeringRig
{
    Testbed tb;
    std::vector<Cqe> cqes;
    std::vector<uint32_t> rqns;
    uint32_t tir = 0;
    std::vector<std::pair<uint32_t, size_t>> seen; ///< (rqn, size)

    SteeringRig()
    {
        uint32_t cqn = tb.a->make_cq(64, &cqes);
        for (int i = 0; i < 4; ++i)
            rqns.push_back(tb.a->make_rq(64, cqn).rqn);
        tir = tb.a->nic->create_tir({rqns});
        tb.a->nic->set_rx_delivery_probe(
            [this](uint32_t rqn, const net::Packet& pkt) {
                seen.emplace_back(rqn, pkt.size());
            });
    }

    NicDevice& nic() { return *tb.a->nic; }

    void run() { tb.eq.run(); }

    /** RQ the TIR's RSS spread picks for a UDP frame. */
    uint32_t rss_rqn(const net::Packet& pkt) const
    {
        net::ParsedPacket pp = net::parse(pkt);
        uint32_t hash = net::toeplitz_ipv4(
            net::default_rss_key(), pp.ipv4->src, pp.ipv4->dst,
            pp.udp->sport, pp.udp->dport);
        return rqns[hash % rqns.size()];
    }
};

/**
 * RSS spread: random traffic through a wildcard fwd-TIR rule must pick
 * the Toeplitz-hashed RQ for every frame, and the choice must actually
 * spread across queues.
 */
TEST(PipelineGolden, RssSpreadPicksIdenticalQueues)
{
    SteeringRig r;
    FlowMatch up;
    up.in_vport = kUplinkVport;
    r.nic().add_rule(0, 5, up, {fwd_tir(r.tir)});
    fld::Rng rng(0x901d);
    std::vector<std::pair<uint32_t, size_t>> expect;
    for (int i = 0; i < 200; ++i) {
        net::Packet p = random_udp(rng);
        expect.emplace_back(r.rss_rqn(p), p.size());
        r.nic().uplink().deliver(std::move(p));
    }
    r.run();
    ASSERT_EQ(r.seen.size(), 200u);
    ASSERT_EQ(r.seen, expect);

    std::set<uint32_t> distinct;
    for (const auto& [rqn, sz] : r.seen)
        distinct.insert(rqn);
    EXPECT_GT(distinct.size(), 1u) << "RSS never spread";
}

/**
 * VXLAN decap steering: outer frames decapsulate and RSS-steer by the
 * inner tuple; the delivered frame is the inner frame.
 */
TEST(PipelineGolden, VxlanDecapSteersIdentically)
{
    SteeringRig r;
    FlowMatch vx;
    vx.in_vport = kUplinkVport;
    vx.dport = net::kVxlanPort;
    r.nic().add_rule(0, 20, vx, {vxlan_decap(), fwd_tir(r.tir)});
    fld::Rng rng(0xdeca9);
    std::vector<std::pair<uint32_t, size_t>> expect;
    for (int i = 0; i < 150; ++i) {
        net::Packet inner = random_udp(rng);
        expect.emplace_back(r.rss_rqn(inner), inner.size());
        r.nic().uplink().deliver(net::vxlan_encapsulate(
            inner, uint32_t(rng.uniform(1u << 24)), uint32_t(rng.next()),
            uint32_t(rng.next()), {2, 0, 0, 0, 0, 3},
            {2, 0, 0, 0, 0, 4}));
    }
    r.run();
    ASSERT_EQ(r.seen.size(), 150u);
    EXPECT_EQ(r.seen, expect);
}

/**
 * Tag steering: a SetTag + Count + Goto chain resolved by a
 * tag-matched rule in a later table must produce the per-tag
 * statistics, counters, and rule-level drop accounting that per-frame
 * bookkeeping predicts.
 */
TEST(PipelineGolden, TagSteeringStatsAreIdentical)
{
    SteeringRig r;
    NicDevice& nic = r.nic();
    FlowMatch odd;
    odd.in_vport = kUplinkVport;
    odd.dport = 1111;
    nic.add_rule(0, 50, odd,
                 {set_tag(0x42), count_action(7), goto_table(3)});
    FlowMatch rest;
    rest.in_vport = kUplinkVport;
    nic.add_rule(0, 1, rest,
                 {set_tag(0x43), count_action(8), goto_table(3)});
    FlowMatch tagged;
    tagged.flow_tag = 0x42;
    nic.add_rule(3, 10, tagged, {fwd_queue(r.rqns[0])});
    nic.add_rule(3, 1, {}, {drop_action()});

    fld::Rng rng(0x7a95);
    std::vector<std::pair<uint32_t, size_t>> expect;
    FlowTables::TagStats want42, want43;
    for (int i = 0; i < 120; ++i) {
        net::Packet p = random_udp(rng);
        if (rng.chance(0.5)) { // rebuild onto the tagged port
            net::ParsedPacket pp = net::parse(p);
            p = net::PacketBuilder()
                    .eth(pp.eth->src, pp.eth->dst)
                    .ipv4(pp.ipv4->src, pp.ipv4->dst,
                          net::kIpProtoUdp, pp.ipv4->id)
                    .udp(pp.udp->sport, 1111)
                    .payload(p.bytes() + pp.payload_offset,
                             pp.payload_len)
                    .build();
        }
        const bool tagged42 = net::parse(p).udp->dport == 1111;
        FlowTables::TagStats& want = tagged42 ? want42 : want43;
        want.packets++;
        want.bytes += p.size();
        if (tagged42)
            expect.emplace_back(r.rqns[0], p.size());
        nic.uplink().deliver(std::move(p));
    }
    r.run();

    EXPECT_EQ(r.seen, expect);
    EXPECT_EQ(nic.flows().tag_stats(0x42).packets, want42.packets);
    EXPECT_EQ(nic.flows().tag_stats(0x42).bytes, want42.bytes);
    EXPECT_EQ(nic.flows().tag_stats(0x43).packets, want43.packets);
    EXPECT_EQ(nic.flows().tag_stats(0x43).bytes, want43.bytes);
    EXPECT_EQ(nic.flows().counter(7), want42.bytes);
    EXPECT_EQ(nic.flows().counter(8), want43.bytes);
    EXPECT_EQ(nic.stats().drops_rule, want43.packets);
    EXPECT_EQ(nic.stats().rx_packets + nic.stats().drops_no_buffer,
              want42.packets);
}

/**
 * Rule hit counters live on the compiled entries and must survive the
 * lazy recompile that any later add_rule/remove_rule triggers.
 */
TEST(PipelineGolden, RecompileKeepsRuleHitCounters)
{
    SteeringRig r;
    NicDevice& nic = r.nic();
    FlowMatch a_match;
    a_match.in_vport = kUplinkVport;
    a_match.dport = 1111;
    uint64_t a = nic.add_rule(0, 10, a_match, {fwd_queue(r.rqns[0])});

    net::Packet frame = net::PacketBuilder()
                            .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
                            .ipv4(1, 2, net::kIpProtoUdp)
                            .udp(3, 1111)
                            .payload(std::vector<uint8_t>{1, 2, 3})
                            .build();
    const size_t frame_bytes = frame.size();
    nic.uplink().deliver(std::move(frame));
    r.run();
    ASSERT_EQ(r.seen.size(), 1u);

    // An unrelated rule forces a recompile on the next lookup.
    FlowMatch b_match;
    b_match.dport = 2222;
    uint64_t b = nic.add_rule(0, 20, b_match, {drop_action()});

    FlowFields f;
    f.in_vport = kUplinkVport;
    f.ethertype = net::kEtherTypeIpv4;
    f.ip_proto = net::kIpProtoUdp;
    f.has_l4 = true;
    f.dport = 1111;
    const CompiledEntry* ea = nic.pipeline().lookup(0, f);
    ASSERT_NE(ea, nullptr);
    EXPECT_EQ(ea->rule_id, a);
    EXPECT_EQ(ea->hits, 1u);
    EXPECT_EQ(ea->hit_bytes, frame_bytes);
    f.dport = 2222;
    const CompiledEntry* eb = nic.pipeline().lookup(0, f);
    ASSERT_NE(eb, nullptr);
    EXPECT_EQ(eb->rule_id, b);
    EXPECT_EQ(eb->hits, 0u);

    // Removing B keeps A's counters too; an explicit program in
    // between does not touch them.
    nic.set_pipeline_program(PipelineConfig{});
    nic.clear_pipeline_program();
    EXPECT_TRUE(nic.remove_rule(b));
    f.dport = 1111;
    ea = nic.pipeline().lookup(0, f);
    ASSERT_NE(ea, nullptr);
    EXPECT_EQ(ea->hits, 1u);
}

// ---------------------------------------------------------------------
// Scenario-level golden traces: the causal digest of the stock echo
// runs must match the pinned contract.
// ---------------------------------------------------------------------

PktGenConfig
small_echo_gen()
{
    PktGenConfig g;
    g.frame_size = 256;
    g.window = 8;
    return g;
}

std::unique_ptr<sim::Tracer>
traced_fld_echo(EchoOptions opt = {}, PktGenConfig g = small_echo_gen())
{
    auto tr = std::make_unique<sim::Tracer>();
    tr->install();
    auto s = apps::make_fld_echo(true, g, {}, opt);
    s->gen->start(sim::microseconds(10), sim::microseconds(100));
    s->tb->eq.run();
    tr->uninstall();
    return tr;
}

std::unique_ptr<sim::Tracer>
traced_cpu_echo(EchoOptions opt = {}, PktGenConfig g = small_echo_gen())
{
    auto tr = std::make_unique<sim::Tracer>();
    tr->install();
    auto s = apps::make_cpu_echo(true, g, {}, opt);
    s->gen->start(sim::microseconds(10), sim::microseconds(100));
    s->tb->eq.run();
    tr->uninstall();
    return tr;
}

TEST(PipelineGolden, FldEchoTraceDigestBitIdentical)
{
    auto tr = traced_fld_echo();
    ASSERT_GT(tr->events().size(), 100u);
    EXPECT_EQ(sim::fnv1a64_str(tr->digest()), contract::kFldEchoTraceHash)
        << "default compiled program drifted from the pinned trace";
}

TEST(PipelineGolden, CpuEchoRssSpreadTraceDigestBitIdentical)
{
    EchoOptions opt;
    opt.echo_queues = 4; // RSS spread across the echo server's queues
    PktGenConfig g = small_echo_gen();
    g.flows = 8;
    auto tr = traced_cpu_echo(opt, g);
    ASSERT_GT(tr->events().size(), 100u);
    EXPECT_EQ(sim::fnv1a64_str(tr->digest()),
              contract::kCpuEchoRssSpreadTraceHash);
}

TEST(PipelineGolden, VxlanEchoTraceDigestBitIdentical)
{
    EchoOptions opt;
    opt.vxlan = true;
    PktGenConfig g = small_echo_gen();
    g.vxlan = true;
    auto tr = traced_fld_echo(opt, g);
    ASSERT_GT(tr->events().size(), 100u);
    EXPECT_EQ(sim::fnv1a64_str(tr->digest()),
              contract::kVxlanEchoTraceHash);
}

TEST(PipelineGolden, MprqEchoTraceDigestBitIdentical)
{
    EchoOptions opt;
    opt.driver_base.rx_buffers = 24; // non-default MPRQ geometry
    opt.driver_base.rx_strides = 16;
    opt.driver_base.rx_stride_shift = 10;
    auto tr = traced_cpu_echo(opt);
    ASSERT_GT(tr->events().size(), 100u);
    EXPECT_EQ(sim::fnv1a64_str(tr->digest()),
              contract::kMprqEchoTraceHash);
}

// ---------------------------------------------------------------------
// Programmable-only actions on the datapath (explicit programs).
// ---------------------------------------------------------------------

/** Explicit one-table program: @p entries then miss -> drop. */
PipelineConfig
one_table(std::vector<PipelineEntryConfig> entries)
{
    PipelineConfig cfg;
    PipelineTableConfig t;
    t.id = 0;
    t.entries = std::move(entries);
    cfg.tables.push_back(std::move(t));
    return cfg;
}

TEST(PipelineGolden, NatRewriteRewritesHeadersAndChecksums)
{
    SteeringRig rig;
    const uint32_t new_dst = ipv4_addr(203, 0, 113, 9);
    const uint16_t new_dport = 4444;

    PipelineEntryConfig e;
    e.priority = 10;
    e.key.in_vport = ternary_exact(kUplinkVport);
    e.actions = {nat_dst(new_dst, new_dport), fwd_queue(rig.rqns[1])};
    rig.nic().set_pipeline_program(one_table({e}));

    std::vector<net::Packet> delivered;
    rig.nic().set_rx_delivery_probe(
        [&](uint32_t, const net::Packet& pkt) {
            delivered.push_back(pkt);
        });

    fld::Rng rng(0xa71);
    std::vector<net::Packet> originals;
    for (int i = 0; i < 40; ++i) {
        originals.push_back(random_udp(rng));
        rig.nic().uplink().deliver(net::Packet(originals.back()));
    }
    rig.run();

    ASSERT_EQ(delivered.size(), originals.size());
    for (size_t i = 0; i < delivered.size(); ++i) {
        net::ParsedPacket op = net::parse(originals[i]);
        // The NATed frame must equal a from-scratch build with the
        // rewritten tuple: same headers AND freshly valid checksums.
        net::Packet expect =
            net::PacketBuilder()
                .eth(op.eth->src, op.eth->dst)
                .ipv4(op.ipv4->src, new_dst, net::kIpProtoUdp,
                      op.ipv4->id)
                .udp(op.udp->sport, new_dport)
                .payload(originals[i].bytes() + op.payload_offset,
                         op.payload_len)
                .build();
        EXPECT_EQ(delivered[i].data, expect.data) << "frame " << i;
    }
}

TEST(PipelineGolden, VipSelectPicksToeplitzBackend)
{
    SteeringRig rig;
    const std::vector<uint32_t> backends{ipv4_addr(10, 1, 0, 1),
                                         ipv4_addr(10, 1, 0, 2),
                                         ipv4_addr(10, 1, 0, 3)};
    PipelineEntryConfig e;
    e.priority = 10;
    e.key.in_vport = ternary_exact(kUplinkVport);
    e.actions = {vip_select(77), fwd_queue(rig.rqns[0])};
    PipelineConfig cfg = one_table({e});
    cfg.pools.push_back({77, backends});
    rig.nic().set_pipeline_program(std::move(cfg));

    std::vector<uint32_t> got;
    rig.nic().set_rx_delivery_probe(
        [&](uint32_t, const net::Packet& pkt) {
            got.push_back(net::parse(pkt).ipv4->dst);
        });

    fld::Rng rng(0x819);
    std::vector<uint32_t> expect;
    std::set<uint32_t> distinct;
    for (int i = 0; i < 120; ++i) {
        net::Packet p = random_udp(rng);
        expect.push_back(
            select_vip_backend(backends, FlowFields::of(p, 0)));
        distinct.insert(expect.back());
        rig.nic().uplink().deliver(std::move(p));
    }
    rig.run();

    EXPECT_EQ(got, expect);
    EXPECT_GT(distinct.size(), 1u) << "VIP never balanced";
}

TEST(PipelineGolden, AclDenyDropsAndAccounts)
{
    SteeringRig rig;
    PipelineEntryConfig deny;
    deny.priority = 50;
    deny.key.dport = ternary_exact(7);
    deny.actions = {acl_deny(3)};
    PipelineEntryConfig allow;
    allow.priority = 1;
    allow.actions = {fwd_queue(rig.rqns[0])};
    rig.nic().set_pipeline_program(one_table({deny, allow}));

    auto frame_to = [](uint16_t dport) {
        return net::PacketBuilder()
            .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
            .ipv4(ipv4_addr(10, 0, 0, 2), ipv4_addr(10, 0, 0, 1),
                  net::kIpProtoUdp)
            .udp(9999, dport)
            .payload(std::vector<uint8_t>{1, 2, 3})
            .build();
    };
    for (int i = 0; i < 5; ++i)
        rig.nic().uplink().deliver(frame_to(7));
    for (int i = 0; i < 3; ++i)
        rig.nic().uplink().deliver(frame_to(80));
    rig.run();

    EXPECT_EQ(rig.nic().stats().drops_acl, 5u);
    EXPECT_EQ(rig.seen.size(), 3u);
}

TEST(PipelineGolden, MaskedKeysAndProgramClear)
{
    SteeringRig rig;
    // dport in [4096, 4111] via mask 0xfff0.
    PipelineEntryConfig e;
    e.priority = 10;
    e.key.dport = ternary_masked(4096, 0xfff0);
    e.actions = {fwd_queue(rig.rqns[2])};
    rig.nic().set_pipeline_program(one_table({e}));

    auto frame_to = [](uint16_t dport) {
        return net::PacketBuilder()
            .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
            .ipv4(1, 2, net::kIpProtoUdp)
            .udp(3, dport)
            .payload(std::vector<uint8_t>{9})
            .build();
    };
    for (uint16_t d : {4096, 4100, 4111}) // in range: delivered
        rig.nic().uplink().deliver(frame_to(d));
    for (uint16_t d : {4095, 4112, 80}) // out of range: miss-drop
        rig.nic().uplink().deliver(frame_to(d));
    rig.run();
    EXPECT_EQ(rig.seen.size(), 3u);
    for (const auto& [rqn, sz] : rig.seen)
        EXPECT_EQ(rqn, rig.rqns[2]);
    EXPECT_EQ(rig.nic().stats().drops_no_rule, 3u);

    // Dropping the explicit program falls back to the flows-derived
    // default program: install a wildcard rule and re-offer a frame
    // the masked program would have dropped.
    rig.nic().clear_pipeline_program();
    rig.nic().add_rule(0, 1, {}, {fwd_queue(rig.rqns[0])});
    rig.nic().uplink().deliver(frame_to(80));
    rig.run();
    ASSERT_EQ(rig.seen.size(), 4u);
    EXPECT_EQ(rig.seen.back().first, rig.rqns[0]);
}

} // namespace
} // namespace fld::nic
