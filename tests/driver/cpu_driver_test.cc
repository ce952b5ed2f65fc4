/**
 * @file
 * CPU (poll-mode) driver tests: loopback send/receive through the
 * NIC, CPU cost accounting, overload shedding, ring backpressure.
 */
#include "driver/cpu_driver.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "net/headers.h"
#include "nic/nic.h"
#include "sim/trace.h"

namespace fld::driver {
namespace {

using net::ipv4_addr;

struct DriverRig
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"host", 64 << 20};
    pcie::PortId host_port;
    std::unique_ptr<nic::NicDevice> nic;
    HostNode host;
    std::unique_ptr<CpuDriver> driver;
    nic::VportId vport;

    explicit DriverRig(CpuDriverConfig cfg = {},
                       HostConfig hcfg = [] {
                           HostConfig h;
                           h.jitter_prob = 0;
                           return h;
                       }())
        : host("host", eq, hcfg)
    {
        host_port = fabric.add_port("host", 50.0, sim::nanoseconds(100));
        fabric.attach(host_port, &hostmem, 0, 64 << 20);
        pcie::PortId nic_port =
            fabric.add_port("nic", 100.0, sim::nanoseconds(100));
        nic = std::make_unique<nic::NicDevice>("nic", eq, fabric,
                                               nic_port);
        fabric.attach(nic_port, nic.get(), 0x4000'0000,
                      nic::NicDevice::kBarSize);
        vport = nic->add_vport();
        driver = std::make_unique<CpuDriver>(
            "drv",
            HostAttach{eq, fabric, host_port, hostmem, 0, *nic,
                       0x4000'0000, host, 0x1000, 48 << 20},
            vport, cfg);

        // Loopback: everything the vport sends comes right back.
        nic::FlowMatch m;
        m.in_vport = vport;
        nic->add_rule(0, 0, m, {nic::fwd_vport(vport)});
        uint32_t tir = nic->create_tir({driver->all_rqns()});
        nic->set_vport_default_tir(vport, tir);
        eq.run();
    }

    net::Packet frame(size_t payload, uint8_t tag)
    {
        std::vector<uint8_t> body(payload, tag);
        return net::PacketBuilder()
            .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
            .ipv4(ipv4_addr(9, 0, 0, 1), ipv4_addr(9, 0, 0, 2),
                  net::kIpProtoUdp)
            .udp(4000, 5000)
            .payload(body)
            .build();
    }
};

TEST(CpuDriver, LoopbackRoundTrip)
{
    DriverRig rig;
    std::vector<net::Packet> rx;
    rig.driver->set_rx_handler([&](uint32_t, net::Packet&& pkt) {
        rx.push_back(std::move(pkt));
    });

    net::Packet pkt = rig.frame(300, 0x42);
    ASSERT_TRUE(rig.driver->send(0, net::Packet(pkt)));
    rig.eq.run();

    ASSERT_EQ(rx.size(), 1u);
    EXPECT_EQ(rx[0].data, pkt.data);
    EXPECT_TRUE(rx[0].meta.l4_csum_ok);
    EXPECT_EQ(rig.driver->stats().tx_packets, 1u);
    EXPECT_EQ(rig.driver->stats().rx_packets, 1u);
}

TEST(CpuDriver, ManyPacketsConserved)
{
    DriverRig rig;
    int rx = 0;
    rig.driver->set_rx_handler(
        [&](uint32_t, net::Packet&&) { ++rx; });
    const int n = 500;
    int sent = 0;
    for (int i = 0; i < n; ++i) {
        net::Packet pkt = rig.frame(128, uint8_t(i));
        sent += rig.driver->send(0, std::move(pkt));
        if (i % 50 == 49)
            rig.eq.run_until(rig.eq.now() + sim::microseconds(50));
    }
    rig.eq.run();
    EXPECT_EQ(rx, sent);
    EXPECT_EQ(int(rig.driver->stats().rx_packets), sent);
    EXPECT_EQ(rig.driver->stats().rx_overload_dropped, 0u);
}

TEST(CpuDriver, CpuCostAccountedPerPacket)
{
    DriverRig rig;
    rig.driver->set_rx_handler([](uint32_t, net::Packet&&) {});
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        rig.driver->send(0, rig.frame(64, uint8_t(i)));
        rig.eq.run_until(rig.eq.now() + sim::microseconds(5));
    }
    rig.eq.run();
    // tx + rx driver cost per packet on core 0.
    sim::TimePs expect =
        sim::TimePs(n) * (rig.host.config().tx_packet_cost +
                          rig.host.config().rx_packet_cost);
    EXPECT_EQ(rig.host.core_busy_time(0), expect);
}

TEST(CpuDriver, OverloadSheddingBoundsBacklog)
{
    CpuDriverConfig cfg;
    cfg.max_app_backlog = sim::microseconds(5);
    HostConfig hcfg;
    hcfg.jitter_prob = 0;
    hcfg.rx_packet_cost = sim::microseconds(2); // very slow app core
    DriverRig rig(cfg, hcfg);
    int delivered = 0;
    rig.driver->set_rx_handler(
        [&](uint32_t, net::Packet&&) { ++delivered; });

    for (int i = 0; i < 100; ++i)
        rig.driver->send(0, rig.frame(64, uint8_t(i)));
    rig.eq.run();

    EXPECT_GT(rig.driver->stats().rx_overload_dropped, 0u);
    EXPECT_LT(delivered, 100);
    EXPECT_GT(delivered, 0);
}

TEST(CpuDriver, RingBackpressureWhenCompletionsStall)
{
    CpuDriverConfig cfg;
    cfg.sq_entries = 64;
    DriverRig rig(cfg);
    // Without running the event loop no completions return, so the
    // ring must fill after sq_entries - 1 posts.
    int accepted = 0;
    for (int i = 0; i < 200; ++i)
        accepted += rig.driver->send(0, rig.frame(64, uint8_t(i)));
    EXPECT_EQ(accepted, 63);
    EXPECT_GT(rig.driver->stats().tx_backpressured, 0u);
    rig.eq.run();
    // After draining, the ring accepts again.
    EXPECT_TRUE(rig.driver->send(0, rig.frame(64, 0xfe)));
    rig.eq.run();
}

TEST(CpuDriver, SixteenBitIndicesWrapInOrder)
{
    // Small rings, so 70,000 frames on one queue wrap the 16-bit WQE
    // counter and recycle every receive buffer thousands of times.
    CpuDriverConfig cfg;
    cfg.sq_entries = 64;
    cfg.rq_entries = 64;
    cfg.rx_buffers = 8;
    cfg.rx_strides = 4;
    DriverRig rig(cfg);
    const uint32_t n = 70'000;
    uint32_t next = 0;
    bool in_order = true;
    rig.driver->set_rx_handler([&](uint32_t, net::Packet&& pkt) {
        uint32_t seq;
        std::memcpy(&seq, pkt.bytes() + net::kEthHeaderLen +
                              net::kIpv4HeaderLen + net::kUdpHeaderLen,
                    sizeof seq);
        in_order = in_order && seq == next;
        ++next;
    });

    uint32_t sent = 0;
    while (sent < n) {
        // Fill the ring, then let every completion come back.
        uint32_t burst = 0;
        for (;;) {
            net::Packet pkt = rig.frame(64, 0);
            std::memcpy(pkt.bytes() + net::kEthHeaderLen +
                            net::kIpv4HeaderLen + net::kUdpHeaderLen,
                        &sent, sizeof sent);
            if (sent == n || !rig.driver->send(0, std::move(pkt)))
                break;
            ++sent;
            ++burst;
        }
        ASSERT_GT(burst, 0u) << "ring stuck after " << sent << " frames";
        rig.eq.run();
    }
    EXPECT_EQ(next, n);
    EXPECT_TRUE(in_order);
    EXPECT_EQ(rig.driver->stats().rx_overload_dropped, 0u);
    EXPECT_EQ(rig.nic->stats().drops_no_buffer, 0u);
    EXPECT_TRUE(rig.driver->send(0, rig.frame(64, 0xfe)));
    rig.eq.run();
    EXPECT_EQ(next, n + 1);
}

TEST(HostRings, StaleRxCompletionRecyclesNothing)
{
    DriverRig rig;
    HostAttach at{rig.eq,       rig.fabric, rig.host_port, rig.hostmem,
                  0,            *rig.nic,   0x4000'0000,   rig.host,
                  (48 << 20) + 0x1000, 8 << 20};
    HostRings rings("rings", at, [](const nic::Cqe&) {});
    RingGeometry g;
    g.rx_buffers = 8;
    uint32_t q = rings.add_queue(rig.vport, g, 2048);
    rig.eq.run();

    sim::Tracer tracer;
    tracer.install();
    // Buffers [0, 8) are posted. Indices 8 and 0x7fff lie ahead of
    // that window, and once buffer 1 is current, index 0 lies behind
    // it: only the completion for buffer 1 reposts (one buffer).
    for (uint16_t index : {uint16_t(8), uint16_t(0x7fff), uint16_t(1),
                           uint16_t(0)}) {
        nic::Cqe cqe;
        cqe.opcode = nic::CqeOpcode::Rx;
        cqe.rq_wqe_index = index;
        rings.recycle_rx(q, cqe);
        rig.eq.run();
    }
    tracer.uninstall();
    std::vector<uint32_t> rq_doorbells;
    for (const sim::TraceEvent& e : tracer.events())
        if (e.kind == sim::TraceEventKind::DoorbellWrite &&
            std::string(e.detail) == "rq" && e.queue == rings.rqn(q))
            rq_doorbells.push_back(e.index);
    EXPECT_EQ(rq_doorbells, std::vector<uint32_t>{9});
}

TEST(CpuDriver, MultiQueueSpreadsAcrossCores)
{
    CpuDriverConfig cfg;
    cfg.num_queues = 4;
    DriverRig rig(cfg);
    rig.driver->set_rx_handler([](uint32_t, net::Packet&&) {});
    for (uint32_t q = 0; q < 4; ++q) {
        for (int i = 0; i < 10; ++i)
            rig.driver->send(q, rig.frame(64, uint8_t(q)));
    }
    rig.eq.run();
    for (uint32_t core = 0; core < 4; ++core) {
        EXPECT_GT(rig.host.core_busy_time(core), 0u)
            << "core " << core;
    }
}

TEST(CpuDriverDeath, OversizedFrameIsFatal)
{
    DriverRig rig;
    net::Packet big;
    big.data.assign(4000, 0);
    EXPECT_DEATH(rig.driver->send(0, std::move(big)), "tx slot");
}

} // namespace
} // namespace fld::driver
