#include "net/headers.h"

#include <algorithm>
#include <cstring>

#include "net/checksum.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace fld::net {

void
EthHeader::encode(uint8_t* out) const
{
    std::memcpy(out, dst.data(), 6);
    std::memcpy(out + 6, src.data(), 6);
    store_be16(out + 12, ethertype);
}

EthHeader
EthHeader::decode(const uint8_t* in)
{
    EthHeader h;
    std::memcpy(h.dst.data(), in, 6);
    std::memcpy(h.src.data(), in + 6, 6);
    h.ethertype = load_be16(in + 12);
    return h;
}

void
Ipv4Header::encode(uint8_t* out, bool fill_checksum) const
{
    out[0] = 0x45; // version 4, IHL 5
    out[1] = tos;
    store_be16(out + 2, total_len);
    store_be16(out + 4, id);
    uint16_t frag = frag_offset & 0x1fff;
    if (dont_fragment)
        frag |= 0x4000;
    if (more_fragments)
        frag |= 0x2000;
    store_be16(out + 6, frag);
    out[8] = ttl;
    out[9] = proto;
    store_be16(out + 10, 0);
    store_be32(out + 12, src);
    store_be32(out + 16, dst);
    if (fill_checksum)
        store_be16(out + 10, ipv4_header_checksum(out, kIpv4HeaderLen));
    else
        store_be16(out + 10, checksum);
}

Ipv4Header
Ipv4Header::decode(const uint8_t* in)
{
    Ipv4Header h;
    h.tos = in[1];
    h.total_len = load_be16(in + 2);
    h.id = load_be16(in + 4);
    uint16_t frag = load_be16(in + 6);
    h.dont_fragment = frag & 0x4000;
    h.more_fragments = frag & 0x2000;
    h.frag_offset = frag & 0x1fff;
    h.ttl = in[8];
    h.proto = in[9];
    h.checksum = load_be16(in + 10);
    h.src = load_be32(in + 12);
    h.dst = load_be32(in + 16);
    return h;
}

void
UdpHeader::encode(uint8_t* out) const
{
    store_be16(out, sport);
    store_be16(out + 2, dport);
    store_be16(out + 4, length);
    store_be16(out + 6, checksum);
}

UdpHeader
UdpHeader::decode(const uint8_t* in)
{
    UdpHeader h;
    h.sport = load_be16(in);
    h.dport = load_be16(in + 2);
    h.length = load_be16(in + 4);
    h.checksum = load_be16(in + 6);
    return h;
}

void
TcpHeader::encode(uint8_t* out) const
{
    store_be16(out, sport);
    store_be16(out + 2, dport);
    store_be32(out + 4, seq);
    store_be32(out + 8, ack);
    out[12] = 5 << 4; // data offset: 5 words
    out[13] = flags;
    store_be16(out + 14, window);
    store_be16(out + 16, checksum);
    store_be16(out + 18, 0); // urgent pointer
}

TcpHeader
TcpHeader::decode(const uint8_t* in)
{
    TcpHeader h;
    h.sport = load_be16(in);
    h.dport = load_be16(in + 2);
    h.seq = load_be32(in + 4);
    h.ack = load_be32(in + 8);
    h.flags = in[13];
    h.window = load_be16(in + 14);
    h.checksum = load_be16(in + 16);
    return h;
}

void
VxlanHeader::encode(uint8_t* out) const
{
    out[0] = 0x08; // VNI-valid flag
    out[1] = out[2] = out[3] = 0;
    store_be32(out + 4, vni << 8);
}

VxlanHeader
VxlanHeader::decode(const uint8_t* in)
{
    VxlanHeader h;
    h.vni = load_be32(in + 4) >> 8;
    return h;
}

void
ArpHeader::encode(uint8_t* out) const
{
    store_be16(out, 1);                  // htype: Ethernet
    store_be16(out + 2, kEtherTypeIpv4); // ptype: IPv4
    out[4] = 6;                          // hlen
    out[5] = 4;                          // plen
    store_be16(out + 6, oper);
    std::memcpy(out + 8, sender_mac.data(), 6);
    store_be32(out + 14, sender_ip);
    std::memcpy(out + 18, target_mac.data(), 6);
    store_be32(out + 24, target_ip);
}

std::optional<ArpHeader>
ArpHeader::decode(const uint8_t* in, size_t len)
{
    if (len < kArpLen)
        return std::nullopt;
    if (load_be16(in) != 1 || load_be16(in + 2) != kEtherTypeIpv4 ||
        in[4] != 6 || in[5] != 4)
        return std::nullopt;
    ArpHeader h;
    h.oper = load_be16(in + 6);
    std::memcpy(h.sender_mac.data(), in + 8, 6);
    h.sender_ip = load_be32(in + 14);
    std::memcpy(h.target_mac.data(), in + 18, 6);
    h.target_ip = load_be32(in + 24);
    return h;
}

namespace {
thread_local uint64_t parse_calls = 0;
} // namespace

uint64_t
parse_count()
{
    return parse_calls;
}

ParsedPacket
parse_at(const Packet& pkt, size_t offset)
{
    ++parse_calls;
    ParsedPacket out;
    const uint8_t* p = pkt.bytes();
    size_t len = pkt.size();

    if (offset + kEthHeaderLen > len)
        return out;
    out.eth = EthHeader::decode(p + offset);
    size_t pos = offset + kEthHeaderLen;
    if (out.eth->ethertype != kEtherTypeIpv4) {
        out.payload_offset = pos;
        out.payload_len = len - pos;
        return out;
    }

    if (pos + kIpv4HeaderLen > len)
        return out;
    out.l3_offset = pos;
    out.ipv4 = Ipv4Header::decode(p + pos);
    size_t ihl = (p[pos] & 0x0f) * 4;
    size_t ip_payload = std::min<size_t>(out.ipv4->total_len, len - pos);
    ip_payload = ip_payload >= ihl ? ip_payload - ihl : 0;
    pos += ihl;
    out.l4_offset = pos;

    // Non-first fragments carry no L4 header.
    if (out.ipv4->frag_offset != 0) {
        out.payload_offset = pos;
        out.payload_len = ip_payload;
        return out;
    }

    if (out.ipv4->proto == kIpProtoUdp && pos + kUdpHeaderLen <= len) {
        out.udp = UdpHeader::decode(p + pos);
        out.payload_offset = pos + kUdpHeaderLen;
        out.payload_len = ip_payload >= kUdpHeaderLen
                              ? ip_payload - kUdpHeaderLen : 0;
        if (out.udp->dport == kVxlanPort &&
            out.payload_offset + kVxlanHeaderLen <= len) {
            out.vxlan = VxlanHeader::decode(p + out.payload_offset);
        }
    } else if (out.ipv4->proto == kIpProtoTcp &&
               pos + kTcpHeaderLen <= len) {
        out.tcp = TcpHeader::decode(p + pos);
        size_t doff = (p[pos + 12] >> 4) * 4;
        out.payload_offset = pos + doff;
        out.payload_len = ip_payload >= doff ? ip_payload - doff : 0;
    } else {
        out.payload_offset = pos;
        out.payload_len = ip_payload;
    }
    return out;
}

ParsedPacket
parse(const Packet& pkt)
{
    return parse_at(pkt, 0);
}

PacketBuilder&
PacketBuilder::eth(const MacAddr& src, const MacAddr& dst)
{
    EthHeader h;
    h.src = src;
    h.dst = dst;
    eth_ = h;
    return *this;
}

PacketBuilder&
PacketBuilder::ipv4(uint32_t src, uint32_t dst, uint8_t proto,
                    uint16_t id, uint8_t ttl)
{
    Ipv4Header h;
    h.src = src;
    h.dst = dst;
    h.proto = proto;
    h.id = id;
    h.ttl = ttl;
    ip_ = h;
    return *this;
}

PacketBuilder&
PacketBuilder::udp(uint16_t sport, uint16_t dport)
{
    UdpHeader h;
    h.sport = sport;
    h.dport = dport;
    udp_ = h;
    return *this;
}

PacketBuilder&
PacketBuilder::tcp(uint16_t sport, uint16_t dport, uint32_t seq,
                   uint32_t ack, uint8_t flags)
{
    TcpHeader h;
    h.sport = sport;
    h.dport = dport;
    h.seq = seq;
    h.ack = ack;
    h.flags = flags;
    tcp_ = h;
    return *this;
}

PacketBuilder&
PacketBuilder::payload(const uint8_t* data, size_t len)
{
    payload_.assign(data, data + len);
    return *this;
}

Packet
PacketBuilder::build() const
{
    if (!eth_ || !ip_)
        panic("PacketBuilder needs at least eth+ipv4");
    if (udp_ && tcp_)
        panic("PacketBuilder: both udp and tcp set");

    size_t l4_hdr = udp_ ? kUdpHeaderLen : (tcp_ ? kTcpHeaderLen : 0);
    size_t l4_len = l4_hdr + payload_.size();
    size_t total = kEthHeaderLen + kIpv4HeaderLen + l4_len;

    Packet pkt;
    pkt.data.resize(total);
    uint8_t* p = pkt.bytes();

    EthHeader eh = *eth_;
    eh.encode(p);

    Ipv4Header ih = *ip_;
    ih.total_len = uint16_t(kIpv4HeaderLen + l4_len);
    if (udp_)
        ih.proto = kIpProtoUdp;
    else if (tcp_)
        ih.proto = kIpProtoTcp;
    ih.encode(p + kEthHeaderLen, true);

    uint8_t* l4 = p + kEthHeaderLen + kIpv4HeaderLen;
    if (udp_) {
        UdpHeader uh = *udp_;
        uh.length = uint16_t(l4_len);
        uh.checksum = 0;
        uh.encode(l4);
        if (!payload_.empty())
            std::memcpy(l4 + kUdpHeaderLen, payload_.data(),
                        payload_.size());
        uint16_t c =
            l4_checksum(ih.src, ih.dst, kIpProtoUdp, l4, l4_len);
        store_be16(l4 + 6, c);
    } else if (tcp_) {
        TcpHeader th = *tcp_;
        th.checksum = 0;
        th.encode(l4);
        if (!payload_.empty())
            std::memcpy(l4 + kTcpHeaderLen, payload_.data(),
                        payload_.size());
        uint16_t c =
            l4_checksum(ih.src, ih.dst, kIpProtoTcp, l4, l4_len);
        store_be16(l4 + 16, c);
    } else if (!payload_.empty()) {
        std::memcpy(l4, payload_.data(), payload_.size());
    }
    return pkt;
}

Packet
vxlan_encapsulate(const Packet& inner, uint32_t vni, uint32_t outer_src_ip,
                  uint32_t outer_dst_ip, const MacAddr& outer_src_mac,
                  const MacAddr& outer_dst_mac)
{
    std::vector<uint8_t> vx(kVxlanHeaderLen + inner.size());
    VxlanHeader vh;
    vh.vni = vni;
    vh.encode(vx.data());
    std::memcpy(vx.data() + kVxlanHeaderLen, inner.bytes(), inner.size());

    Packet outer = PacketBuilder()
                       .eth(outer_src_mac, outer_dst_mac)
                       .ipv4(outer_src_ip, outer_dst_ip, kIpProtoUdp)
                       .udp(0xbeef, kVxlanPort)
                       .payload(vx)
                       .build();
    outer.meta = inner.meta;
    return outer;
}

std::optional<Packet>
vxlan_decapsulate(const Packet& outer)
{
    ParsedPacket pp = parse(outer);
    if (!pp.udp || pp.udp->dport != kVxlanPort || !pp.vxlan)
        return std::nullopt;
    size_t inner_off = pp.payload_offset + kVxlanHeaderLen;
    if (inner_off > outer.size())
        return std::nullopt;

    Packet inner;
    // Intentional copy: decap takes the outer frame by const ref
    // (callers may still need it, e.g. to re-encap or count bytes).
    inner.data.assign(outer.bytes() + inner_off,
                      outer.bytes() + outer.size());
    inner.meta = outer.meta;
    inner.meta.tunneled = true;
    inner.meta.vni = pp.vxlan->vni;
    return inner;
}

} // namespace fld::net
