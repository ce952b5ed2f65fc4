/**
 * @file
 * End-to-end system tests over the §8 scenarios: remote/local FLD-E
 * echo, FLD-R echo and ZUC, IP defragmentation, and IoT
 * authentication — the same assemblies the reproduction benches use.
 */
#include "apps/scenarios.h"

#include <gtest/gtest.h>

namespace fld::apps {
namespace {

TEST(FldEchoRemote, RoundTripsAtMtu)
{
    PktGenConfig g;
    g.frame_size = 1500;
    g.window = 96;
    g.measure_rtt = true;
    auto s = make_fld_echo(true, g);
    s->gen->start(sim::milliseconds(1), sim::milliseconds(5));
    s->tb->eq.run();

    EXPECT_GT(s->gen->rx_count(), 1000u);
    EXPECT_GT(s->echo->stats().packets_in, 1000u);
    // Near line rate: 25 Gbps * 1500/1520 = 24.7.
    double gbps = s->gen->rx_meter().gbps(s->gen->measure_start(),
                                          s->gen->measure_end());
    EXPECT_GT(gbps, 20.0);
    EXPECT_LT(gbps, 25.0);
    EXPECT_EQ(s->tb->server_nic->stats().drops_no_buffer, 0u);
}

TEST(FldEchoRemote, SmallPacketRttIsMicroseconds)
{
    PktGenConfig g;
    g.frame_size = 64;
    g.window = 1; // unloaded latency
    g.measure_rtt = true;
    auto s = make_fld_echo(true, g);
    s->gen->start(sim::microseconds(100), sim::milliseconds(3));
    s->tb->eq.run();

    ASSERT_GT(s->gen->rtt_us().count(), 100u);
    // Table 6 scale: a few microseconds round trip.
    EXPECT_GT(s->gen->rtt_us().median(), 1.0);
    EXPECT_LT(s->gen->rtt_us().median(), 8.0);
}

TEST(FldEchoLocal, LoopsThroughEswitch)
{
    PktGenConfig g;
    g.frame_size = 1024;
    g.window = 32;
    auto s = make_fld_echo(false, g);
    s->gen->start(sim::milliseconds(1), sim::milliseconds(4));
    s->tb->eq.run();
    EXPECT_GT(s->gen->rx_count(), 1000u);
    // Local max is PCIe-bound (50 Gbps), not wire-bound.
    double gbps = s->gen->rx_meter().gbps(s->gen->measure_start(),
                                          s->gen->measure_end());
    EXPECT_GT(gbps, 10.0);
}

TEST(CpuEchoRemote, Works)
{
    PktGenConfig g;
    g.frame_size = 512;
    g.window = 32;
    auto s = make_cpu_echo(true, g);
    s->gen->start(sim::milliseconds(1), sim::milliseconds(4));
    s->tb->eq.run();
    EXPECT_GT(s->gen->rx_count(), 1000u);
    EXPECT_GT(s->echoed, 1000u);
}

TEST(FldrEchoRemote, MessagesRoundTrip)
{
    auto s = make_fldr_echo(true);
    int received = 0;
    s->client->set_msg_handler(
        [&](uint32_t, std::vector<uint8_t>&& msg) {
            ++received;
            EXPECT_EQ(msg.size(), 4096u);
        });
    for (int i = 0; i < 50; ++i)
        s->client->post_send(std::vector<uint8_t>(4096, uint8_t(i)),
                             uint32_t(i + 1));
    s->tb->eq.run();
    EXPECT_EQ(received, 50);
    EXPECT_EQ(s->tb->server_nic->stats().rdma_retransmits, 0u);
}

TEST(FldrZucRemote, EncryptsCorrectly)
{
    auto s = make_fldr_zuc(true);
    driver::RdmaClient& client = *s->client;

    CryptoPerfConfig cfg;
    cfg.request_payload = 512;
    cfg.window = 16;
    cfg.verify = true;
    CryptoPerfClient perf(s->tb->eq, client, cfg);
    perf.start(sim::microseconds(100), sim::milliseconds(4));
    s->tb->eq.run();

    EXPECT_GT(perf.responses(), 500u);
    EXPECT_GT(perf.verified_ok(), 500u);
    EXPECT_EQ(perf.verified_bad(), 0u)
        << "every response must decrypt back to the request";
}

TEST(FldrZucLocal, Works)
{
    auto s = make_fldr_zuc(false);
    CryptoPerfConfig cfg;
    cfg.request_payload = 1024;
    cfg.window = 8;
    cfg.verify = true;
    CryptoPerfClient perf(s->tb->eq, *s->client, cfg);
    perf.start(sim::microseconds(100), sim::milliseconds(2));
    s->tb->eq.run();
    EXPECT_GT(perf.responses(), 100u);
    EXPECT_EQ(perf.verified_bad(), 0u);
}

TEST(Defrag, NoFragmentationBaselineNearLineRate)
{
    DefragOptions opt; // no fragmentation, no VXLAN, software stack
    auto s = make_defrag(opt);
    s->iperf->start(sim::milliseconds(8));
    s->tb->eq.run();
    double gbps = s->stack->meter().gbps();
    EXPECT_GT(gbps, 18.0);
    EXPECT_LT(gbps, 25.0);
}

TEST(Defrag, SoftwareDefragCollapsesToOneCore)
{
    DefragOptions opt;
    opt.fragmented = true;
    opt.hw_defrag = false;
    auto s = make_defrag(opt);
    s->iperf->start(sim::milliseconds(8));
    s->tb->eq.run();
    double gbps = s->stack->meter().gbps();
    // Single-core bottleneck: far below line rate (paper: 3.2 Gbps).
    EXPECT_LT(gbps, 8.0);
    EXPECT_GT(gbps, 0.5);

    // All fragments landed on one queue (RSS can't see L4 ports).
    int active_cores = 0;
    for (uint32_t c = 0; c < s->tb->server_host.cores(); ++c) {
        active_cores +=
            s->tb->server_host.core_busy_time(c) > sim::microseconds(50);
    }
    EXPECT_LE(active_cores, 2);
}

TEST(Defrag, HardwareDefragRestoresRss)
{
    DefragOptions opt;
    opt.fragmented = true;
    opt.hw_defrag = true;
    auto s = make_defrag(opt);
    s->iperf->start(sim::milliseconds(8));
    s->tb->eq.run();
    double gbps = s->stack->meter().gbps();
    EXPECT_GT(gbps, 15.0) << "hardware defrag must restore spreading";
    EXPECT_GT(s->defrag->reassembly_stats().packets_out, 1000u);
    // Every fragment went through the defrag AFU: the stack (software
    // defrag off) dropped none.
    EXPECT_EQ(s->stack->dropped_fragments(), 0u);

    int active_cores = 0;
    for (uint32_t c = 0; c < s->tb->server_host.cores(); ++c) {
        active_cores +=
            s->tb->server_host.core_busy_time(c) > sim::microseconds(50);
    }
    EXPECT_GT(active_cores, 6);
}

TEST(Defrag, VxlanDecapBeforeDefrag)
{
    DefragOptions opt;
    opt.fragmented = true;
    opt.vxlan = true;
    opt.hw_defrag = true;
    auto s = make_defrag(opt);
    s->iperf->start(sim::milliseconds(8));
    s->tb->eq.run();
    double gbps = s->stack->meter().gbps();
    // Sender-bound (software tunneling), but far above the software
    // defrag baseline.
    EXPECT_GT(gbps, 8.0);
    EXPECT_LT(gbps, 23.0);
    EXPECT_GT(s->defrag->reassembly_stats().packets_out, 500u);
    EXPECT_EQ(s->stack->dropped_fragments(), 0u);
}

TEST(Iot, ValidTokensPassInvalidDropped)
{
    IotOptions opt;
    TenantFlow good;
    good.tenant_id = 1;
    good.offered_gbps = 1.0;
    good.jwt_key = "key-1";
    good.valid_tokens = true;
    good.src_ip = net::ipv4_addr(10, 0, 0, 2);
    good.sport = 50001;
    TenantFlow bad = good;
    bad.tenant_id = 2;
    bad.jwt_key = "key-2";
    bad.valid_tokens = false;
    bad.src_ip = net::ipv4_addr(10, 0, 0, 3);
    bad.sport = 50002;
    opt.tenants = {good, bad};
    opt.accel_capacity_gbps = 12.0;

    auto s = make_iot(opt);
    s->trex->start(sim::milliseconds(4));
    s->tb->eq.run();

    EXPECT_GT(s->auth->auth_stats().valid, 100u);
    EXPECT_GT(s->auth->auth_stats().invalid_signature, 100u);
    EXPECT_GT(s->accepted_bytes[1], 0u);
    EXPECT_EQ(s->accepted_bytes[2], 0u)
        << "invalid signatures must never reach the host";
}

TEST(Iot, OverloadSharesProportionallyWithoutShaping)
{
    IotOptions opt;
    TenantFlow a;
    a.tenant_id = 1;
    a.offered_gbps = 8.0;
    a.frame_size = 1024;
    a.jwt_key = "key-a";
    a.src_ip = net::ipv4_addr(10, 0, 0, 2);
    a.sport = 50001;
    TenantFlow b = a;
    b.tenant_id = 2;
    b.offered_gbps = 16.0;
    b.jwt_key = "key-b";
    b.src_ip = net::ipv4_addr(10, 0, 0, 3);
    b.sport = 50002;
    opt.tenants = {a, b};
    opt.accel_capacity_gbps = 12.0;

    auto s = make_iot(opt);
    s->trex->start(sim::milliseconds(6));
    s->tb->eq.run();

    double ga = s->accepted_meter[1].gbps();
    double gb = s->accepted_meter[2].gbps();
    // Proportional: ~12 * 8/24 = 4 and ~12 * 16/24 = 8.
    EXPECT_GT(gb, ga * 1.5);
    EXPECT_LT(ga, 6.0);
    EXPECT_LT(ga + gb, 14.0);
}

TEST(Iot, ShapingRestoresFairness)
{
    IotOptions opt;
    TenantFlow a;
    a.tenant_id = 1;
    a.offered_gbps = 8.0;
    a.frame_size = 1024;
    a.jwt_key = "key-a";
    a.src_ip = net::ipv4_addr(10, 0, 0, 2);
    a.sport = 50001;
    TenantFlow b = a;
    b.tenant_id = 2;
    b.offered_gbps = 16.0;
    b.jwt_key = "key-b";
    b.src_ip = net::ipv4_addr(10, 0, 0, 3);
    b.sport = 50002;
    opt.tenants = {a, b};
    opt.accel_capacity_gbps = 12.0;
    opt.tenant_rate_cap_gbps = 6.0;

    auto s = make_iot(opt);
    s->trex->start(sim::milliseconds(6));
    s->tb->eq.run();

    double ga = s->accepted_meter[1].gbps();
    double gb = s->accepted_meter[2].gbps();
    // Both near their 6 Gbps allocation.
    EXPECT_NEAR(ga, 6.0, 1.2);
    EXPECT_NEAR(gb, 6.0, 1.2);
}

TEST(FldrZucRemote, IntegrityMacMatchesLibrary)
{
    // 128-EIA3 through the full stack: client -> RDMA -> FLD -> ZUC
    // AFU -> back; the MAC must equal the crypto library's.
    auto s = make_fldr_zuc(true);
    auto& client = *s->client;

    accel::ZucHeader req;
    req.op = accel::ZucOp::Eia3Mac;
    req.count = 0xcafe;
    req.bearer = 9;
    req.direction = 1;
    for (size_t i = 0; i < req.key.size(); ++i)
        req.key[i] = uint8_t(0x21 * (i + 1));
    std::vector<uint8_t> data(777);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i ^ 0x5a);
    req.length_bits = uint32_t(data.size() * 8);

    std::optional<uint32_t> mac;
    client.set_msg_handler([&](uint32_t, std::vector<uint8_t>&& msg) {
        auto parsed = accel::zuc_parse(msg);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->first.status, accel::ZucStatus::Ok);
        EXPECT_TRUE(parsed->second.empty()) << "MAC-only response";
        mac = parsed->first.mac;
    });
    client.post_send(accel::zuc_request(req, data), 1);
    s->tb->eq.run();

    ASSERT_TRUE(mac.has_value());
    EXPECT_EQ(*mac, crypto::eia3_mac(req.key, req.count, req.bearer,
                                     req.direction, data.data(),
                                     req.length_bits));
}

TEST(ErrorHandling, QpErrorPropagatesToControlPlane)
{
    // §5.3: the NIC reports data-plane errors through FLD to the
    // control plane; recovery is software's job. Inject a QP error on
    // the FLD-side QP mid-traffic and observe the full chain.
    auto s = make_fldr_zuc(true);
    std::vector<runtime::RuntimeEvent> events;
    s->tb->rt->set_event_handler(
        [&](const runtime::RuntimeEvent& e) { events.push_back(e); });

    CryptoPerfConfig cfg;
    cfg.request_payload = 512;
    cfg.window = 8;
    CryptoPerfClient perf(s->tb->eq, *s->client, cfg);
    perf.start(sim::microseconds(100), sim::milliseconds(3));
    s->tb->eq.run_until(s->tb->eq.now() + sim::microseconds(500));
    uint64_t served_before = perf.responses();

    s->tb->server_nic->inject_qp_error(s->qp.qpn);
    s->tb->eq.run_until(s->tb->eq.now() + sim::milliseconds(1));

    // The control plane saw the async error (from the NIC handler
    // and/or error CQEs surfaced through FLD).
    ASSERT_FALSE(events.empty());
    bool nic_fatal = false, fld_error = false;
    for (const auto& e : events) {
        nic_fatal |= e.source == runtime::RuntimeEvent::Source::Nic;
        fld_error |= e.source == runtime::RuntimeEvent::Source::Fld;
    }
    EXPECT_TRUE(nic_fatal);
    EXPECT_TRUE(fld_error) << "error CQEs must reach FLD's handler";

    // The data path is dead; no further responses complete.
    uint64_t served_after = perf.responses();
    s->tb->eq.run_until(s->tb->eq.now() + sim::milliseconds(1));
    EXPECT_EQ(perf.responses(), served_after);
    EXPECT_GT(served_before, 0u);
    s->tb->eq.clear();
}

} // namespace
} // namespace fld::apps
