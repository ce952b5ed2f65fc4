/**
 * @file
 * FLD runtime (control plane) tests: queue wiring, ring layout,
 * acceleration actions, connection management, event plumbing.
 */
#include "runtime/fld_runtime.h"

#include <gtest/gtest.h>

#include "apps/testbed.h"
#include "nic/nic.h"

namespace fld::runtime {
namespace {

struct RuntimeRig
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"host", 32 << 20};
    std::unique_ptr<nic::NicDevice> nic;
    std::unique_ptr<core::FlexDriver> fld;
    std::unique_ptr<FldRuntime> rt;
    nic::VportId vport;

    RuntimeRig()
    {
        pcie::PortId host_port = fabric.add_port("host", 50.0, 0);
        fabric.attach(host_port, &hostmem, 0, 32 << 20);
        pcie::PortId nic_port = fabric.add_port("nic", 100.0, 0);
        nic = std::make_unique<nic::NicDevice>("nic", eq, fabric,
                                               nic_port);
        fabric.attach(nic_port, nic.get(), 0x4000'0000,
                      nic::NicDevice::kBarSize);
        pcie::PortId fld_port = fabric.add_port("fld", 50.0, 0);
        fld = std::make_unique<core::FlexDriver>(
            "fld", eq, fabric, fld_port, 0x8000'0000, 0x4000'0000);
        fabric.attach(fld_port, fld.get(), 0x8000'0000,
                      core::FlexDriver::kBarSize);
        rt = std::make_unique<FldRuntime>(*nic, *fld, hostmem,
                                          16 << 20, 8 << 20);
        vport = nic->add_vport();
    }
};

TEST(FldRuntime, EthQueueWiring)
{
    RuntimeRig rig;
    auto q = rig.rt->create_eth_queue(rig.vport, 0, 8);
    EXPECT_EQ(q.fld_queue, 0u);
    EXPECT_NE(q.sqn, 0u);
    EXPECT_NE(q.rqn, 0u);
    EXPECT_EQ(q.vport, rig.vport);
    // The rx descriptor ring must land in host memory pointing at the
    // FLD BAR: read slot 0 back and check the address range.
    rig.eq.run();
    // Slot 0 of the ring was written by the runtime; fetch it through
    // the NIC's own state by steering a packet: covered in
    // integration tests. Here verify the FLD-side helpers.
    EXPECT_EQ(rig.fld->tx_ring_addr(0), 0x8000'0000u);
    EXPECT_GE(rig.fld->rx_buffer_addr(q.rqn, 0),
              0x8000'0000u + core::FlexDriver::kRxDataRegion);
}

TEST(FldRuntime, DistinctQueuesDistinctRings)
{
    RuntimeRig rig;
    auto q0 = rig.rt->create_eth_queue(rig.vport, 0, 4);
    auto q1 = rig.rt->create_eth_queue(rig.vport, 1, 4);
    EXPECT_NE(q0.sqn, q1.sqn);
    EXPECT_NE(q0.rqn, q1.rqn);
    EXPECT_NE(rig.fld->tx_ring_addr(0), rig.fld->tx_ring_addr(1));
    EXPECT_NE(rig.fld->rx_buffer_addr(q0.rqn, 0),
              rig.fld->rx_buffer_addr(q1.rqn, 0));
}

TEST(FldRuntime, SharedCompletionQueues)
{
    // One CQ for all transmit queues and one for receive (§4.3): both
    // queues must use the same pair.
    RuntimeRig rig;
    auto q0 = rig.rt->create_eth_queue(rig.vport, 0, 4);
    auto q1 = rig.rt->create_eth_queue(rig.vport, 1, 4);
    EXPECT_EQ(q0.cqn_tx, q1.cqn_tx);
    EXPECT_EQ(q0.cqn_rx, q1.cqn_rx);
    EXPECT_NE(q0.cqn_tx, q0.cqn_rx);
}

TEST(FldRuntime, FldQpCreatesConnectedPair)
{
    RuntimeRig rig;
    auto qp = rig.rt->create_fld_qp(rig.vport, 0, 8);
    EXPECT_NE(qp.qpn, 0u);
    rig.rt->connect_qp(qp, /*remote_qpn=*/77, apps::kServerMac,
                       apps::kClientMac);
    // Connecting twice (reconnect) must be allowed.
    rig.rt->connect_qp(qp, 78, apps::kServerMac, apps::kClientMac);
}

TEST(FldRuntime, AccelActionInstallsTagAndResume)
{
    RuntimeRig rig;
    auto q = rig.rt->create_eth_queue(rig.vport, 0, 4);
    nic::FlowMatch m;
    m.dport = 5683;
    uint64_t id = rig.rt->add_accel_action(0, 5, m, q,
                                           /*context_id=*/9,
                                           /*next_table=*/7);
    EXPECT_NE(id, 0u);
    EXPECT_EQ(rig.nic->flows().rule_count(), 1u);

    // Inspect the installed rule: SetTag then SendToAccel.
    net::Packet pkt = net::PacketBuilder()
                          .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
                          .ipv4(1, 2, net::kIpProtoUdp)
                          .udp(1000, 5683)
                          .payload(std::vector<uint8_t>{1})
                          .build();
    const nic::Pipeline& pipe = rig.nic->pipeline();
    const nic::CompiledEntry* rule =
        pipe.lookup(0, nic::FlowFields::of(pkt, nic::kUplinkVport));
    ASSERT_NE(rule, nullptr);
    EXPECT_EQ(rule->rule_id, id);
    EXPECT_EQ(rule->hits, 0u);
    ASSERT_EQ(rule->action_count, 2u);
    const nic::Action* acts = pipe.actions(*rule);
    EXPECT_EQ(acts[0].type, nic::ActionType::SetTag);
    EXPECT_EQ(acts[0].arg0, 9u);
    EXPECT_EQ(acts[1].type, nic::ActionType::SendToAccel);
    EXPECT_EQ(acts[1].arg0, q.rqn);
    EXPECT_EQ(acts[1].arg1, 7u);
}

TEST(FldRuntime, AccelActionWithoutTag)
{
    RuntimeRig rig;
    auto q = rig.rt->create_eth_queue(rig.vport, 0, 4);
    rig.rt->add_accel_action(0, 0, {}, q, /*context_id=*/0,
                             /*next_table=*/3);
    net::Packet pkt = net::PacketBuilder()
                          .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
                          .ipv4(1, 2, net::kIpProtoUdp)
                          .udp(1, 2)
                          .payload(std::vector<uint8_t>{1})
                          .build();
    const nic::Pipeline& pipe = rig.nic->pipeline();
    const nic::CompiledEntry* rule =
        pipe.lookup(0, nic::FlowFields::of(pkt, nic::kUplinkVport));
    ASSERT_NE(rule, nullptr);
    ASSERT_EQ(rule->action_count, 1u);
    EXPECT_EQ(pipe.actions(*rule)[0].type, nic::ActionType::SendToAccel);
}

TEST(FldRuntime, EventChannelForwardsBothSources)
{
    RuntimeRig rig;
    std::vector<RuntimeEvent> events;
    rig.rt->set_event_handler(
        [&](const RuntimeEvent& e) { events.push_back(e); });

    // FLD-side error: transmitting on an unbound queue.
    core::StreamPacket pkt;
    pkt.data = {1, 2, 3};
    EXPECT_FALSE(rig.fld->tx(1, std::move(pkt)));
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events[0].source, RuntimeEvent::Source::Fld);
    EXPECT_NE(events[0].description.find("fld error"),
              std::string::npos);

    // NIC-side error: an RDMA send on an unconnected QP.
    events.clear();
    auto qp = rig.rt->create_fld_qp(rig.vport, 0, 2);
    core::StreamPacket msg;
    msg.data.assign(128, 0x11);
    ASSERT_TRUE(rig.fld->tx(0, std::move(msg)));
    rig.eq.run();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events[0].source, RuntimeEvent::Source::Nic);
    (void)qp;
}

TEST(FldRuntimeDeath, ArenaExhaustion)
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"host", 32 << 20};
    pcie::PortId host_port = fabric.add_port("host", 50.0, 0);
    fabric.attach(host_port, &hostmem, 0, 32 << 20);
    pcie::PortId nic_port = fabric.add_port("nic", 100.0, 0);
    nic::NicDevice nic("nic", eq, fabric, nic_port);
    fabric.attach(nic_port, &nic, 0x4000'0000,
                  nic::NicDevice::kBarSize);
    pcie::PortId fld_port = fabric.add_port("fld", 50.0, 0);
    core::FlexDriver fld("fld", eq, fabric, fld_port, 0x8000'0000,
                         0x4000'0000);
    fabric.attach(fld_port, &fld, 0x8000'0000,
                  core::FlexDriver::kBarSize);
    // A tiny arena cannot hold even one receive ring.
    FldRuntime rt(nic, fld, hostmem, 16 << 20, 64);
    nic::VportId v = nic.add_vport();
    EXPECT_DEATH(rt.create_eth_queue(v, 0, 8), "arena");
}

} // namespace
} // namespace fld::runtime
