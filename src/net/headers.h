/**
 * @file
 * Protocol header codecs: Ethernet, IPv4, UDP, TCP, VXLAN.
 *
 * Headers are encoded to/decoded from real network-order bytes so that
 * checksum offloads, RSS hashing, and defragmentation operate on
 * faithful wire formats.
 */
#ifndef FLD_NET_HEADERS_H
#define FLD_NET_HEADERS_H

#include <array>
#include <cstdint>
#include <optional>

#include "net/packet.h"

namespace fld::net {

using MacAddr = std::array<uint8_t, 6>;

constexpr uint16_t kEtherTypeIpv4 = 0x0800;
constexpr uint16_t kEtherTypeArp = 0x0806;

constexpr uint8_t kIpProtoTcp = 6;
constexpr uint8_t kIpProtoUdp = 17;

constexpr uint16_t kVxlanPort = 4789;
constexpr uint16_t kCoapPort = 5683;

constexpr size_t kEthHeaderLen = 14;
constexpr size_t kIpv4HeaderLen = 20; // without options
constexpr size_t kUdpHeaderLen = 8;
constexpr size_t kTcpHeaderLen = 20; // without options
constexpr size_t kVxlanHeaderLen = 8;

/** Ethernet II header. */
struct EthHeader
{
    MacAddr dst{};
    MacAddr src{};
    uint16_t ethertype = kEtherTypeIpv4;

    void encode(uint8_t* out) const;
    static EthHeader decode(const uint8_t* in);
};

/** IPv4 header (no options). */
struct Ipv4Header
{
    uint8_t tos = 0;
    uint16_t total_len = 0;
    uint16_t id = 0;
    bool dont_fragment = false;
    bool more_fragments = false;
    uint16_t frag_offset = 0; ///< in 8-byte units
    uint8_t ttl = 64;
    uint8_t proto = kIpProtoUdp;
    uint16_t checksum = 0;
    uint32_t src = 0;
    uint32_t dst = 0;

    bool is_fragment() const { return more_fragments || frag_offset != 0; }

    /** Encode; when @p fill_checksum, compute the header checksum. */
    void encode(uint8_t* out, bool fill_checksum = true) const;
    static Ipv4Header decode(const uint8_t* in);
};

/** UDP header. */
struct UdpHeader
{
    uint16_t sport = 0;
    uint16_t dport = 0;
    uint16_t length = 0;
    uint16_t checksum = 0;

    void encode(uint8_t* out) const;
    static UdpHeader decode(const uint8_t* in);
};

/** TCP header (no options). */
struct TcpHeader
{
    uint16_t sport = 0;
    uint16_t dport = 0;
    uint32_t seq = 0;
    uint32_t ack = 0;
    uint8_t flags = 0; ///< FIN=1 SYN=2 RST=4 PSH=8 ACK=16
    uint16_t window = 0xffff;
    uint16_t checksum = 0;

    void encode(uint8_t* out) const;
    static TcpHeader decode(const uint8_t* in);
};

/** VXLAN header (RFC 7348). */
struct VxlanHeader
{
    uint32_t vni = 0;

    void encode(uint8_t* out) const;
    static VxlanHeader decode(const uint8_t* in);
};

constexpr size_t kArpLen = 28; ///< Ethernet/IPv4 ARP body

/** ARP for IPv4 over Ethernet (RFC 826), carried after an Ethernet
 *  header with ethertype kEtherTypeArp. */
struct ArpHeader
{
    static constexpr uint16_t kRequest = 1;
    static constexpr uint16_t kReply = 2;

    uint16_t oper = kRequest;
    MacAddr sender_mac{};
    uint32_t sender_ip = 0;
    MacAddr target_mac{}; ///< all-zero in requests
    uint32_t target_ip = 0;

    void encode(uint8_t* out) const;
    /** Empty when htype/ptype/hlen/plen are not Ethernet/IPv4. */
    static std::optional<ArpHeader> decode(const uint8_t* in, size_t len);
};

/**
 * Parsed view of a packet: header copies plus payload offsets.
 * Parse failures leave the corresponding optional empty.
 */
struct ParsedPacket
{
    std::optional<EthHeader> eth;
    std::optional<Ipv4Header> ipv4;
    std::optional<UdpHeader> udp;
    std::optional<TcpHeader> tcp;
    std::optional<VxlanHeader> vxlan;

    size_t l3_offset = 0;      ///< start of IPv4 header
    size_t l4_offset = 0;      ///< start of UDP/TCP header
    size_t payload_offset = 0; ///< start of L4 payload
    size_t payload_len = 0;

    bool is_ip_fragment() const
    {
        return ipv4 && ipv4->is_fragment();
    }
};

/**
 * Parse Ethernet/IPv4/{UDP,TCP}. Does not look inside VXLAN; parse
 * the vxlan_decapsulate() result (or parse_at() the inner Ethernet
 * header) for that. For IP fragments
 * with non-zero offset, L4 headers are not parsed (they are only
 * present in the first fragment).
 */
ParsedPacket parse(const Packet& pkt);

/** Parse starting directly at an inner Ethernet header. */
ParsedPacket parse_at(const Packet& pkt, size_t offset);

/**
 * parse()/parse_at() calls made on the calling thread so far. A
 * host-independent cost counter: benches read it before and after a
 * run in the thread that runs it, so parallel rows never mix counts.
 */
uint64_t parse_count();

/**
 * Convenience builder assembling Ethernet/IPv4/{UDP,TCP}/payload
 * packets with correct lengths and checksums.
 */
class PacketBuilder
{
  public:
    PacketBuilder& eth(const MacAddr& src, const MacAddr& dst);
    PacketBuilder& ipv4(uint32_t src, uint32_t dst, uint8_t proto,
                        uint16_t id = 0, uint8_t ttl = 64);
    PacketBuilder& udp(uint16_t sport, uint16_t dport);
    PacketBuilder& tcp(uint16_t sport, uint16_t dport, uint32_t seq,
                       uint32_t ack, uint8_t flags);
    PacketBuilder& payload(const uint8_t* data, size_t len);
    PacketBuilder& payload(const std::vector<uint8_t>& data)
    {
        return payload(data.data(), data.size());
    }

    /** Assemble bytes, fix lengths, compute checksums. */
    Packet build() const;

  private:
    std::optional<EthHeader> eth_;
    std::optional<Ipv4Header> ip_;
    std::optional<UdpHeader> udp_;
    std::optional<TcpHeader> tcp_;
    std::vector<uint8_t> payload_;
};

/**
 * Encapsulate @p inner (a full Ethernet frame) in
 * outer-Eth/IPv4/UDP/VXLAN. @p decapsulate reverses it, returning the
 * inner frame (meta.tunneled/vni set).
 */
Packet vxlan_encapsulate(const Packet& inner, uint32_t vni,
                         uint32_t outer_src_ip, uint32_t outer_dst_ip,
                         const MacAddr& outer_src_mac,
                         const MacAddr& outer_dst_mac);
std::optional<Packet> vxlan_decapsulate(const Packet& outer);

/** Build an IPv4 address from dotted components. */
constexpr uint32_t ipv4_addr(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
{
    return uint32_t(a) << 24 | uint32_t(b) << 16 | uint32_t(c) << 8 | d;
}

} // namespace fld::net

#endif // FLD_NET_HEADERS_H
