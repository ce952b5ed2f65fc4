#include "apps/iperf.h"

#include "apps/testbed.h"
#include "nic/config.h"

namespace fld::apps {

IperfSender::IperfSender(sim::EventQueue& eq, driver::HostNode& host,
                         driver::CpuDriver& driver, IperfConfig cfg)
    : eq_(eq), host_(host), driver_(driver), cfg_(cfg), rng_(cfg.seed)
{}

void
IperfSender::start(sim::TimePs duration)
{
    end_time_ = eq_.now() + duration;
    send_next();
}

void
IperfSender::send_next()
{
    if (eq_.now() >= end_time_)
        return;

    uint32_t flow = next_flow_++ % cfg_.flows;
    size_t payload = kIperfDatagramBytes - net::kIpv4HeaderLen -
                     net::kUdpHeaderLen;
    std::vector<uint8_t> body(payload);
    for (size_t i = 0; i < std::min<size_t>(payload, 32); ++i)
        body[i] = uint8_t(rng_.next());

    net::Packet datagram =
        net::PacketBuilder()
            .eth(kClientMac, kServerMac)
            .ipv4(cfg_.src_ip, cfg_.dst_ip, net::kIpProtoUdp,
                  next_ip_id_++)
            .udp(uint16_t(cfg_.base_sport + flow), cfg_.dport)
            .payload(body)
            .build();

    // Sender-side kernel work: fragmentation and tunneling run in
    // software on the flow's core.
    sim::TimePs cost = kIperfSendCost;
    std::vector<net::Packet> frames;
    if (cfg_.fragment && datagram.size() - net::kEthHeaderLen >
                             cfg_.route_mtu) {
        frames = net::ip_fragment(datagram, cfg_.route_mtu);
        cost += kIperfFragmentCost;
    } else {
        frames.push_back(std::move(datagram));
    }
    if (cfg_.vxlan) {
        for (auto& f : frames) {
            f = net::vxlan_encapsulate(f, cfg_.vni, cfg_.outer_src_ip,
                                       cfg_.outer_dst_ip, kClientMac,
                                       kServerMac);
        }
        cost += kIperfVxlanCost;
    }

    uint32_t core = flow % host_.cores();
    uint64_t wire_bytes = 0;
    for (const auto& f : frames)
        wire_bytes += f.size() + nic::kEthWireOverhead;

    ++datagrams_;
    frames_ += frames.size();
    host_.run_on_core(core, cost,
                      [this, frames = std::move(frames),
                       flow]() mutable {
                          uint32_t q = flow % driver_.num_queues();
                          for (auto& f : frames)
                              driver_.send(q, std::move(f));
                      });

    // Offered-load pacing over the aggregate.
    sim::TimePs gap = sim::serialize_time(wire_bytes, cfg_.offered_gbps);
    eq_.schedule_in(gap, [this] { send_next(); });
}

} // namespace fld::apps
