/**
 * @file
 * Match-action rule tests (wildcards, priorities, counters), matched
 * through the compiled default program (Pipeline::config_from), plus
 * property tests for the VXLAN tunnel actions and eSwitch RSS
 * steering over decapsulated inner headers.
 */
#include "nic/flow_table.h"

#include <gtest/gtest.h>

#include "net/headers.h"
#include "nic/pipeline.h"
#include "net/toeplitz.h"
#include "tests/nic/nic_test_fixture.h"
#include "util/rng.h"

namespace fld::nic {
namespace {

using net::ipv4_addr;

net::Packet udp_packet(uint32_t src, uint32_t dst, uint16_t sport,
                       uint16_t dport)
{
    return net::PacketBuilder()
        .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
        .ipv4(src, dst, net::kIpProtoUdp)
        .udp(sport, dport)
        .payload(std::vector<uint8_t>{1, 2, 3})
        .build();
}

TEST(FlowFields, ExtractsUdpTuple)
{
    net::Packet pkt =
        udp_packet(ipv4_addr(10, 0, 0, 1), ipv4_addr(10, 0, 0, 2), 5, 7);
    FlowFields f = FlowFields::of(pkt, 3);
    EXPECT_EQ(f.in_vport, 3);
    EXPECT_EQ(f.ethertype, net::kEtherTypeIpv4);
    EXPECT_EQ(f.ip_proto, net::kIpProtoUdp);
    EXPECT_EQ(f.src_ip, ipv4_addr(10, 0, 0, 1));
    EXPECT_EQ(f.dst_ip, ipv4_addr(10, 0, 0, 2));
    EXPECT_EQ(f.sport, 5);
    EXPECT_EQ(f.dport, 7);
    EXPECT_TRUE(f.has_l4);
    EXPECT_FALSE(f.is_fragment);
}

/** Id of the rule the compiled default program of @p t picks for
 *  @p f in @p table, or 0 on a miss (rule ids start at 1). */
uint64_t
matched_rule(const FlowTables& t, uint32_t table, const FlowFields& f)
{
    Pipeline p(Pipeline::config_from(t));
    const CompiledEntry* e = p.lookup(table, f);
    return e ? e->rule_id : 0;
}

uint64_t
matched_rule(const FlowTables& t, uint32_t table, const net::Packet& pkt)
{
    return matched_rule(t, table, FlowFields::of(pkt, 0));
}

TEST(FlowTables, WildcardMatchesEverything)
{
    FlowTables t;
    uint64_t id = t.add_rule(0, 0, {}, {drop_action()});
    net::Packet pkt = udp_packet(1, 2, 3, 4);
    EXPECT_EQ(matched_rule(t, 0, pkt), id);
}

TEST(FlowTables, FieldMatching)
{
    FlowTables t;
    FlowMatch m;
    m.dport = 4789;
    m.ip_proto = net::kIpProtoUdp;
    uint64_t id = t.add_rule(0, 0, m, {drop_action()});

    net::Packet hit = udp_packet(1, 2, 999, 4789);
    net::Packet miss = udp_packet(1, 2, 999, 80);
    EXPECT_EQ(matched_rule(t, 0, hit), id);
    EXPECT_EQ(matched_rule(t, 0, miss), 0u);
}

TEST(FlowTables, PriorityOrdering)
{
    FlowTables t;
    FlowMatch specific;
    specific.dport = 80;
    uint64_t low = t.add_rule(0, 1, {}, {drop_action()});
    uint64_t high = t.add_rule(0, 10, specific, {fwd_vport(2)});

    net::Packet pkt = udp_packet(1, 2, 3, 80);
    EXPECT_EQ(matched_rule(t, 0, pkt), high);

    net::Packet other = udp_packet(1, 2, 3, 81);
    EXPECT_EQ(matched_rule(t, 0, other), low);
}

TEST(FlowTables, EqualPriorityIsInsertionOrder)
{
    FlowTables t;
    uint64_t first = t.add_rule(0, 5, {}, {drop_action()});
    t.add_rule(0, 5, {}, {fwd_vport(1)});
    net::Packet pkt = udp_packet(1, 2, 3, 4);
    EXPECT_EQ(matched_rule(t, 0, pkt), first);
}

TEST(FlowTables, RemoveRule)
{
    FlowTables t;
    uint64_t id = t.add_rule(0, 0, {}, {drop_action()});
    EXPECT_EQ(t.rule_count(), 1u);
    EXPECT_TRUE(t.remove_rule(id));
    EXPECT_FALSE(t.remove_rule(id));
    EXPECT_EQ(t.rule_count(), 0u);
    net::Packet pkt = udp_packet(1, 2, 3, 4);
    EXPECT_EQ(matched_rule(t, 0, pkt), 0u);
}

TEST(FlowTables, TablesAreIndependent)
{
    FlowTables t;
    uint64_t id = t.add_rule(1, 0, {}, {drop_action()});
    net::Packet pkt = udp_packet(1, 2, 3, 4);
    EXPECT_EQ(matched_rule(t, 0, pkt), 0u);
    EXPECT_EQ(matched_rule(t, 1, pkt), id);
}

TEST(FlowTables, FragmentMatching)
{
    FlowTables t;
    FlowMatch frag_match;
    frag_match.is_fragment = true;
    uint64_t id = t.add_rule(0, 0, frag_match, {fwd_queue(9)});

    net::Packet pkt = udp_packet(1, 2, 3, 4);
    EXPECT_EQ(matched_rule(t, 0, pkt), 0u);

    // Forge fragment bits.
    net::Ipv4Header ih =
        net::Ipv4Header::decode(pkt.bytes() + net::kEthHeaderLen);
    ih.more_fragments = true;
    ih.encode(pkt.bytes() + net::kEthHeaderLen, true);
    EXPECT_EQ(matched_rule(t, 0, pkt), id);
}

TEST(FlowTables, TagMatchingAfterSetTag)
{
    FlowTables t;
    FlowMatch tag_match;
    tag_match.flow_tag = 0x42;
    uint64_t id = t.add_rule(2, 0, tag_match, {drop_action()});

    net::Packet pkt = udp_packet(1, 2, 3, 4);
    pkt.meta.flow_tag = 0x42;
    EXPECT_EQ(matched_rule(t, 2, pkt), id);
    pkt.meta.flow_tag = 0x43;
    EXPECT_EQ(matched_rule(t, 2, pkt), 0u);
}

TEST(FlowTables, EachMatchFieldIsExactAndTheRestWildcard)
{
    FlowFields base = FlowFields::of(
        udp_packet(ipv4_addr(10, 0, 0, 1), ipv4_addr(10, 0, 0, 2), 5, 7),
        3);
    base.vni = 77;
    base.flow_tag = 0x42;

    // One rule per FlowMatch field, matching base on that field only;
    // flipping that field in the packet must turn the hit into a miss.
    using Set = void (*)(FlowMatch&, const FlowFields&);
    using Flip = void (*)(FlowFields&);
    const std::pair<Set, Flip> fields[] = {
        {[](FlowMatch& m, const FlowFields& f) { m.in_vport = f.in_vport; },
         [](FlowFields& f) { f.in_vport ^= 1; }},
        {[](FlowMatch& m, const FlowFields& f) { m.ethertype = f.ethertype; },
         [](FlowFields& f) { f.ethertype ^= 1; }},
        {[](FlowMatch& m, const FlowFields& f) { m.ip_proto = f.ip_proto; },
         [](FlowFields& f) { f.ip_proto ^= 1; }},
        {[](FlowMatch& m, const FlowFields& f) { m.src_ip = f.src_ip; },
         [](FlowFields& f) { f.src_ip ^= 1; }},
        {[](FlowMatch& m, const FlowFields& f) { m.dst_ip = f.dst_ip; },
         [](FlowFields& f) { f.dst_ip ^= 1; }},
        {[](FlowMatch& m, const FlowFields& f) { m.sport = f.sport; },
         [](FlowFields& f) { f.sport ^= 1; }},
        {[](FlowMatch& m, const FlowFields& f) { m.dport = f.dport; },
         [](FlowFields& f) { f.has_l4 = false; }}, // ports need L4
        {[](FlowMatch& m, const FlowFields& f) {
             m.is_fragment = f.is_fragment;
         },
         [](FlowFields& f) { f.is_fragment = !f.is_fragment; }},
        {[](FlowMatch& m, const FlowFields& f) { m.vni = f.vni; },
         [](FlowFields& f) { f.vni ^= 1; }},
        {[](FlowMatch& m, const FlowFields& f) { m.flow_tag = f.flow_tag; },
         [](FlowFields& f) { f.flow_tag ^= 1; }},
    };
    for (size_t i = 0; i < std::size(fields); ++i) {
        FlowTables t;
        FlowMatch m;
        fields[i].first(m, base);
        uint64_t id = t.add_rule(0, 0, m, {drop_action()});
        EXPECT_EQ(matched_rule(t, 0, base), id) << "field " << i;
        FlowFields other = base;
        fields[i].second(other);
        EXPECT_EQ(matched_rule(t, 0, other), 0u) << "field " << i;
    }
}

TEST(FlowTables, Counters)
{
    FlowTables t;
    EXPECT_EQ(t.counter(5), 0u);
    t.bump_counter(5, 100);
    t.bump_counter(5, 50);
    EXPECT_EQ(t.counter(5), 150u);
    EXPECT_EQ(t.counter(6), 0u);
}

// ---------------------------------------------------------------------
// VXLAN property tests
// ---------------------------------------------------------------------

/** Random inner UDP frame drawn from @p rng (tuple, length, bytes). */
net::Packet random_inner(fld::Rng& rng)
{
    uint32_t src = uint32_t(rng.next());
    uint32_t dst = uint32_t(rng.next());
    uint16_t sport = uint16_t(1 + rng.uniform(65534));
    uint16_t dport = uint16_t(1 + rng.uniform(65534));
    std::vector<uint8_t> payload(1 + rng.uniform(1400));
    for (auto& b : payload)
        b = uint8_t(rng.next());
    return net::PacketBuilder()
        .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
        .ipv4(src, dst, net::kIpProtoUdp, uint16_t(rng.uniform(0x10000)))
        .udp(sport, dport)
        .payload(payload)
        .build();
}

TEST(VxlanProperty, EncapDecapRoundTripIsBitExact)
{
    fld::Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        net::Packet inner = random_inner(rng);
        uint32_t vni = uint32_t(rng.uniform(1u << 24));
        uint32_t osrc = uint32_t(rng.next());
        uint32_t odst = uint32_t(rng.next());

        net::Packet outer = net::vxlan_encapsulate(
            inner, vni, osrc, odst, {2, 0, 0, 0, 0, 3},
            {2, 0, 0, 0, 0, 4});

        // Outer framing: UDP to the VXLAN port, 50 B of overhead.
        net::ParsedPacket opp = net::parse(outer);
        ASSERT_TRUE(opp.udp) << "iteration " << i;
        EXPECT_EQ(opp.udp->dport, net::kVxlanPort);
        ASSERT_TRUE(opp.vxlan);
        EXPECT_EQ(opp.vxlan->vni, vni);
        EXPECT_EQ(outer.size(),
                  inner.size() + net::kEthHeaderLen +
                      net::kIpv4HeaderLen + net::kUdpHeaderLen +
                      net::kVxlanHeaderLen);

        auto back = net::vxlan_decapsulate(outer);
        ASSERT_TRUE(back.has_value()) << "iteration " << i;
        EXPECT_EQ(back->data, inner.data) << "iteration " << i;
        EXPECT_TRUE(back->meta.tunneled);
        EXPECT_EQ(back->meta.vni, vni);
    }
}

TEST(VxlanProperty, DecapRejectsNonVxlanAndTruncated)
{
    fld::Rng rng(7);
    net::Packet inner = random_inner(rng);

    // Plain UDP to a non-VXLAN port never decapsulates.
    EXPECT_FALSE(net::vxlan_decapsulate(inner).has_value());

    // A valid outer truncated below the VXLAN header is rejected, not
    // mis-parsed.
    net::Packet outer = net::vxlan_encapsulate(
        inner, 9, 1, 2, {2, 0, 0, 0, 0, 3}, {2, 0, 0, 0, 0, 4});
    net::Packet cut = outer;
    cut.data.resize(net::kEthHeaderLen + net::kIpv4HeaderLen +
                    net::kUdpHeaderLen + 2);
    EXPECT_FALSE(net::vxlan_decapsulate(cut).has_value());
}

/**
 * eSwitch steering property: a VXLAN frame arriving on the uplink is
 * decapsulated by the match-action pipeline and then RSS-sprayed by
 * the Toeplitz hash of the *inner* 4-tuple — the queue choice must be
 * reproducible from the inner headers alone.
 */
TEST(VxlanSteering, PipelineDecapSteersByInnerTupleRss)
{
    using namespace fld::nic::testing;
    Testbed tb;
    auto& nic = *tb.a->nic;

    std::vector<Cqe> cqes;
    uint32_t cqn = tb.a->make_cq(64, &cqes);
    std::vector<uint32_t> rqns;
    for (int i = 0; i < 4; ++i)
        rqns.push_back(tb.a->make_rq(64, cqn).rqn);
    uint32_t tir = nic.create_tir({rqns});

    FlowMatch vx;
    vx.in_vport = kUplinkVport;
    vx.dport = net::kVxlanPort;
    nic.add_rule(0, 20, vx, {vxlan_decap(), fwd_tir(tir)});

    std::vector<std::pair<uint32_t, size_t>> seen; // (rqn, frame size)
    nic.set_rx_delivery_probe(
        [&](uint32_t rqn, const net::Packet& pkt) {
            seen.emplace_back(rqn, pkt.size());
        });

    fld::Rng rng(0x5eed);
    std::vector<uint32_t> expect_rqn;
    std::vector<size_t> expect_size;
    for (int i = 0; i < 200; ++i) {
        net::Packet inner = random_inner(rng);
        net::ParsedPacket ipp = net::parse(inner);
        uint32_t hash = net::toeplitz_ipv4(
            net::default_rss_key(), ipp.ipv4->src, ipp.ipv4->dst,
            ipp.udp->sport, ipp.udp->dport);
        expect_rqn.push_back(rqns[hash % rqns.size()]);
        expect_size.push_back(inner.size());

        net::Packet outer = net::vxlan_encapsulate(
            inner, uint32_t(rng.uniform(1u << 24)), uint32_t(rng.next()),
            uint32_t(rng.next()), {2, 0, 0, 0, 0, 3},
            {2, 0, 0, 0, 0, 4});
        nic.uplink().deliver(std::move(outer));
    }
    tb.eq.run();

    ASSERT_EQ(seen.size(), 200u);
    for (size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].first, expect_rqn[i]) << "frame " << i;
        // The probe observes the post-decap inner frame.
        EXPECT_EQ(seen[i].second, expect_size[i]) << "frame " << i;
    }
}

/**
 * Encap direction through the pipeline: an uplink frame matching the
 * encap rule is hairpinned back to the wire wrapped in a VXLAN outer
 * that decapsulates to the original bytes.
 */
TEST(VxlanSteering, PipelineEncapHairpinProducesValidOuter)
{
    using namespace fld::nic::testing;
    Testbed tb;
    auto& nic = *tb.a->nic;

    const uint32_t vni = 0x00abcd;
    FlowMatch m;
    m.in_vport = kUplinkVport;
    m.dport = 7777;
    nic.add_rule(0, 10, m,
                 {vxlan_encap(vni, net::ipv4_addr(172, 16, 0, 1),
                              net::ipv4_addr(172, 16, 0, 2)),
                  fwd_vport(kUplinkVport)});

    std::vector<net::Packet> wire;
    nic.uplink().set_tx_hook(
        [&](net::Packet&& p) { wire.push_back(std::move(p)); });

    fld::Rng rng(11);
    std::vector<std::vector<uint8_t>> sent;
    for (int i = 0; i < 50; ++i) {
        net::Packet inner = random_inner(rng);
        // Rewrite the UDP dport to hit the encap rule (rebuild so the
        // checksum stays valid).
        net::ParsedPacket ipp = net::parse(inner);
        inner = net::PacketBuilder()
                    .eth(ipp.eth->src, ipp.eth->dst)
                    .ipv4(ipp.ipv4->src, ipp.ipv4->dst,
                          net::kIpProtoUdp, ipp.ipv4->id)
                    .udp(ipp.udp->sport, 7777)
                    .payload(inner.bytes() + ipp.payload_offset,
                             ipp.payload_len)
                    .build();
        sent.push_back(inner.data);
        nic.uplink().deliver(std::move(inner));
    }
    tb.eq.run();

    ASSERT_EQ(wire.size(), 50u);
    for (size_t i = 0; i < wire.size(); ++i) {
        net::ParsedPacket opp = net::parse(wire[i]);
        ASSERT_TRUE(opp.vxlan) << "frame " << i;
        EXPECT_EQ(opp.vxlan->vni, vni);
        EXPECT_EQ(opp.ipv4->src, net::ipv4_addr(172, 16, 0, 1));
        EXPECT_EQ(opp.ipv4->dst, net::ipv4_addr(172, 16, 0, 2));
        auto back = net::vxlan_decapsulate(wire[i]);
        ASSERT_TRUE(back.has_value()) << "frame " << i;
        EXPECT_EQ(back->data, sent[i]) << "frame " << i;
    }
}

TEST(FlowTables, TagStatsTrackPerTenantSteering)
{
    FlowTables t;
    net::Packet pkt = udp_packet(1, 2, 3, 4);
    EXPECT_EQ(t.tag_stats(5).packets, 0u);

    // note_tag is what the eSwitch calls when a SetTag action fires.
    t.note_tag(5, pkt.size());
    t.note_tag(5, pkt.size());
    t.note_tag(9, 100);

    EXPECT_EQ(t.tag_stats(5).packets, 2u);
    EXPECT_EQ(t.tag_stats(5).bytes, 2 * pkt.size());
    EXPECT_EQ(t.tag_stats(9).packets, 1u);
    EXPECT_EQ(t.tag_stats(9).bytes, 100u);
    EXPECT_EQ(t.tags().size(), 2u);
    EXPECT_EQ(t.tag_stats(7).packets, 0u) << "unseen tag reads zero";
}

TEST(FlowTables, CountersScaleWithManyIds)
{
    // Steering counters are per-packet hot path: exercise a large id
    // space the way a many-tenant deployment would.
    FlowTables t;
    for (uint32_t id = 0; id < 50000; ++id)
        t.bump_counter(id, id);
    for (uint32_t id : {0u, 1u, 777u, 49999u})
        EXPECT_EQ(t.counter(id), id);
    EXPECT_EQ(t.counter(50000), 0u);
}

TEST(FlowActions, ConstructorsEncodeArgs)
{
    Action a = send_to_accel(7, 42);
    EXPECT_EQ(a.type, ActionType::SendToAccel);
    EXPECT_EQ(a.arg0, 7u);
    EXPECT_EQ(a.arg1, 42u);

    Action e = vxlan_encap(0x99, 1, 2);
    EXPECT_EQ(e.type, ActionType::VxlanEncap);
    EXPECT_EQ(e.arg1, 0x99u);
    EXPECT_EQ(e.arg2, 1u);
    EXPECT_EQ(e.arg3, 2u);
}

} // namespace
} // namespace fld::nic
