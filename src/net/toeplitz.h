/**
 * @file
 * Toeplitz hash used by receive-side scaling (RSS).
 *
 * The NIC model hashes the IPv4 5-tuple with the standard Microsoft
 * RSS key to select a receive queue / host core. The defragmentation
 * experiment (§8.2.2) hinges on this hash being unavailable for IP
 * fragments, which collapses traffic onto a single core.
 */
#ifndef FLD_NET_TOEPLITZ_H
#define FLD_NET_TOEPLITZ_H

#include <array>
#include <cstdint>
#include <cstddef>

namespace fld::net {

constexpr size_t kRssKeyLen = 40;
using RssKey = std::array<uint8_t, kRssKeyLen>;

/** The de-facto standard Microsoft RSS hash key. */
const RssKey& default_rss_key();

/** Toeplitz hash over an arbitrary input byte string, bit-serial:
 *  the reference RssTable is built from and tested against. */
uint32_t toeplitz_hash(const RssKey& key, const uint8_t* input,
                       size_t len);

/** Bit-serial Toeplitz over the IPv4 4-tuple (src, dst, sport, dport). */
uint32_t toeplitz_ipv4(const RssKey& key, uint32_t src_ip, uint32_t dst_ip,
                       uint16_t sport, uint16_t dport);

/**
 * Table-driven Toeplitz for one key. The hash is linear over GF(2), so
 * the hash of an input is the XOR of the hashes of its bytes, each
 * taken alone at its position: one table word per input byte instead
 * of one key-window step per input bit.
 */
class RssTable
{
  public:
    /** Longest input covered: the IPv4 4-tuple. */
    static constexpr size_t kMaxInput = 12;

    explicit RssTable(const RssKey& key);

    /** The 4-tuple hash; equals toeplitz_ipv4(key, ...). */
    uint32_t ipv4(uint32_t src_ip, uint32_t dst_ip, uint16_t sport,
                  uint16_t dport) const
    {
        return ip_pair(src_ip, dst_ip) ^ word(8, sport >> 8) ^
               word(9, sport & 0xff) ^ word(10, dport >> 8) ^
               word(11, dport & 0xff);
    }

    /** The hash of the 8-byte (src, dst) pair, for frames whose L4
     *  header is not visible. */
    uint32_t ip_pair(uint32_t src_ip, uint32_t dst_ip) const
    {
        return word(0, src_ip >> 24) ^ word(1, (src_ip >> 16) & 0xff) ^
               word(2, (src_ip >> 8) & 0xff) ^ word(3, src_ip & 0xff) ^
               word(4, dst_ip >> 24) ^ word(5, (dst_ip >> 16) & 0xff) ^
               word(6, (dst_ip >> 8) & 0xff) ^ word(7, dst_ip & 0xff);
    }

  private:
    uint32_t word(size_t pos, uint32_t byte) const
    {
        return table_[pos][byte];
    }

    uint32_t table_[kMaxInput][256];
};

/** The RssTable of default_rss_key(), built on first use. */
const RssTable& default_rss_table();

} // namespace fld::net

#endif // FLD_NET_TOEPLITZ_H
