#include "apps/trex.h"

#include "apps/testbed.h"
#include "net/coap.h"
#include "net/jwt.h"
#include "nic/config.h"
#include "util/strings.h"

namespace fld::apps {

TrexGen::TrexGen(sim::EventQueue& eq, driver::CpuDriver& driver,
                 TrexConfig cfg)
    : eq_(eq), driver_(driver), cfg_(std::move(cfg)), rng_(cfg_.seed),
      sent_(cfg_.flows.size(), 0), msg_id_(cfg_.flows.size(), 0)
{}

net::Packet
TrexGen::make_frame(size_t flow)
{
    const TenantFlow& f = cfg_.flows[flow];

    std::string claims =
        strfmt(R"({"sub":"device-%u","seq":%u})", f.tenant_id,
               msg_id_[flow]);
    std::string key = f.valid_tokens ? f.jwt_key
                                     : f.jwt_key + "-wrong";
    std::string token = net::jwt_sign_hs256(claims, key);

    net::CoapMessage msg;
    msg.type = net::CoapType::NonConfirmable;
    msg.code = net::kCoapCodePost;
    msg.message_id = msg_id_[flow]++;
    msg.uri_path = {"iot", "ingest"};
    msg.payload.assign(token.begin(), token.end());
    std::vector<uint8_t> coap = msg.encode();

    net::Packet pkt = net::PacketBuilder()
                          .eth(kClientMac, kServerMac)
                          .ipv4(f.src_ip, cfg_.dst_ip,
                                net::kIpProtoUdp)
                          .udp(f.sport, f.dport)
                          .payload(coap)
                          .build();
    // Pad to the flow's frame size so offered Gbps is exact.
    if (pkt.size() < f.frame_size) {
        // Rebuild with padded CoAP payload (padding after the token
        // is ignored by the token parser? No — pad the UDP payload
        // *before* encoding would corrupt CoAP). Instead pad the JWT
        // claims: simplest is to extend the frame with trailing bytes
        // at L2, which real generators do with UDP padding; keep the
        // UDP length authoritative.
        pkt.data.resize(f.frame_size, 0);
    }
    return pkt;
}

void
TrexGen::start(sim::TimePs duration)
{
    end_time_ = eq_.now() + duration;
    for (size_t i = 0; i < cfg_.flows.size(); ++i)
        send_flow(i);
}

void
TrexGen::send_flow(size_t flow)
{
    if (eq_.now() >= end_time_)
        return;
    net::Packet pkt = make_frame(flow);
    uint64_t wire = pkt.size() + nic::kEthWireOverhead;
    driver_.send(uint32_t(flow % driver_.num_queues()),
                 std::move(pkt));
    ++sent_[flow];

    sim::TimePs gap =
        sim::serialize_time(wire, cfg_.flows[flow].offered_gbps);
    eq_.schedule_in(gap, [this, flow] { send_flow(flow); });
}

} // namespace fld::apps
