/**
 * @file
 * Workload-generator tests: IMC size mixture statistics, TRex frame
 * validity (CoAP + JWT), iperf software fragmentation/tunneling.
 */
#include <gtest/gtest.h>

#include <map>

#include "apps/scenarios.h"
#include "net/coap.h"
#include "net/jwt.h"

namespace fld::apps {
namespace {

TEST(ImcMixture, SizesFromCharacterizedSet)
{
    Rng rng(1);
    std::map<size_t, int> hist;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hist[imc_frame_size(rng)]++;

    // Only characterized bins appear.
    for (const auto& [size, count] : hist) {
        EXPECT_TRUE(size == 64 || size == 128 || size == 256 ||
                    size == 512 || size == 1024 || size == 1500)
            << size;
        EXPECT_GT(count, 0);
    }
    // Bimodal: small packets dominate by count...
    EXPECT_GT(hist[64], n / 2);
    // ...with a meaningful full-MTU mode.
    EXPECT_GT(hist[1500], n / 40);
}

TEST(ImcMixture, CountWeightedAverageMatchesCalibration)
{
    Rng rng(2);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += double(imc_frame_size(rng));
    double avg = sum / n;
    // Calibrated to ~220 B (see pktgen.cc); the 12.7 Mpps experiment
    // depends on this scale.
    EXPECT_GT(avg, 190.0);
    EXPECT_LT(avg, 250.0);
}

TEST(TrexGen, FramesCarryVerifiableTokens)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"m", 16 << 20};
    pcie::PortId hp = fabric.add_port("h", 50.0, 0);
    fabric.attach(hp, &hostmem, 0, 16 << 20);
    pcie::PortId np = fabric.add_port("n", 50.0, 0);
    nic::NicDevice nic("nic", eq, fabric, np);
    fabric.attach(np, &nic, 0x4000'0000, nic::NicDevice::kBarSize);
    driver::HostNode host("h", eq, {});
    nic::VportId v = nic.add_vport();
    driver::CpuDriver drv("d",
                          {eq, fabric, hp, hostmem, 0, nic, 0x4000'0000,
                           host, 0x1000, 8 << 20},
                          v);

    TenantFlow good;
    good.tenant_id = 1;
    good.jwt_key = "k1";
    good.valid_tokens = true;
    good.frame_size = 512;
    TenantFlow bad = good;
    bad.tenant_id = 2;
    bad.jwt_key = "k2";
    bad.valid_tokens = false;
    TrexConfig cfg;
    cfg.flows = {good, bad};
    TrexGen trex(eq, drv, cfg);

    net::Packet gp = trex.make_frame(0);
    EXPECT_EQ(gp.size(), 512u);
    net::ParsedPacket pp = net::parse(gp);
    ASSERT_TRUE(pp.udp);
    EXPECT_EQ(pp.udp->dport, net::kCoapPort);
    // UDP length is authoritative; trailing L2 padding is ignored.
    size_t coap_len = pp.udp->length - net::kUdpHeaderLen;
    auto coap = net::CoapMessage::decode(gp.bytes() + pp.payload_offset,
                                         coap_len);
    ASSERT_TRUE(coap.has_value());
    std::string token(coap->payload.begin(), coap->payload.end());
    EXPECT_TRUE(net::jwt_verify_hs256(token, "k1").valid);
    EXPECT_FALSE(net::jwt_verify_hs256(token, "k2").valid);

    net::Packet bp = trex.make_frame(1);
    net::ParsedPacket bpp = net::parse(bp);
    auto bcoap = net::CoapMessage::decode(
        bp.bytes() + bpp.payload_offset,
        size_t(bpp.udp->length - net::kUdpHeaderLen));
    ASSERT_TRUE(bcoap.has_value());
    std::string btoken(bcoap->payload.begin(), bcoap->payload.end());
    EXPECT_FALSE(net::jwt_verify_hs256(btoken, "k2").valid)
        << "attack flow tokens must not verify under the real key";
}

TEST(IperfSender, FragmentationDoublesFrames)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"m", 32 << 20};
    pcie::PortId hp = fabric.add_port("h", 50.0, 0);
    fabric.attach(hp, &hostmem, 0, 32 << 20);
    pcie::PortId np = fabric.add_port("n", 100.0, 0);
    nic::NicDevice nic("nic", eq, fabric, np);
    fabric.attach(np, &nic, 0x4000'0000, nic::NicDevice::kBarSize);
    driver::HostNode host("h", eq, {});
    nic::VportId v = nic.add_vport();
    driver::CpuDriver drv("d",
                          {eq, fabric, hp, hostmem, 0, nic, 0x4000'0000,
                           host, 0x1000, 24 << 20},
                          v);
    // Sink everything at the switch.
    nic::FlowMatch m;
    m.in_vport = v;
    nic.add_rule(0, 0, m, {nic::drop_action()});

    IperfConfig cfg;
    cfg.fragment = true;
    cfg.route_mtu = 1450;
    cfg.offered_gbps = 10.0;
    IperfSender iperf(eq, host, drv, cfg);
    iperf.start(sim::milliseconds(1));
    eq.run();

    EXPECT_GT(iperf.datagrams_sent(), 100u);
    EXPECT_EQ(iperf.frames_sent(), 2 * iperf.datagrams_sent())
        << "1500 B datagrams over a 1450 B route MTU split in two";
}

TEST(IperfSender, NoFragmentationOneFramePerDatagram)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"m", 32 << 20};
    pcie::PortId hp = fabric.add_port("h", 50.0, 0);
    fabric.attach(hp, &hostmem, 0, 32 << 20);
    pcie::PortId np = fabric.add_port("n", 100.0, 0);
    nic::NicDevice nic("nic", eq, fabric, np);
    fabric.attach(np, &nic, 0x4000'0000, nic::NicDevice::kBarSize);
    driver::HostNode host("h", eq, {});
    nic::VportId v = nic.add_vport();
    driver::CpuDriver drv("d",
                          {eq, fabric, hp, hostmem, 0, nic, 0x4000'0000,
                           host, 0x1000, 24 << 20},
                          v);
    nic::FlowMatch m;
    m.in_vport = v;
    nic.add_rule(0, 0, m, {nic::drop_action()});

    IperfConfig cfg;
    cfg.offered_gbps = 10.0;
    IperfSender iperf(eq, host, drv, cfg);
    iperf.start(sim::milliseconds(1));
    eq.run();
    EXPECT_EQ(iperf.frames_sent(), iperf.datagrams_sent());
}

} // namespace
} // namespace fld::apps
