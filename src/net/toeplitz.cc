#include "net/toeplitz.h"

#include "util/bitops.h"

namespace fld::net {

const RssKey&
default_rss_key()
{
    // Verbatim from the Microsoft RSS specification; also the default
    // key of mlx5, ixgbe and most other drivers.
    static const RssKey key = {
        0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
        0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
        0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
        0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
    };
    return key;
}

uint32_t
toeplitz_hash(const RssKey& key, const uint8_t* input, size_t len)
{
    uint32_t result = 0;
    // Sliding 32-bit window over the key, one bit per input bit.
    uint32_t window = load_be32(key.data());
    size_t key_bit = 32;
    for (size_t i = 0; i < len; ++i) {
        uint8_t byte = input[i];
        for (int b = 7; b >= 0; --b) {
            if ((byte >> b) & 1)
                result ^= window;
            // Shift the window left by one, pulling in the next key bit.
            uint8_t next = key_bit < kRssKeyLen * 8
                               ? (key[key_bit / 8] >> (7 - key_bit % 8)) & 1
                               : 0;
            window = window << 1 | next;
            ++key_bit;
        }
    }
    return result;
}

uint32_t
toeplitz_ipv4(const RssKey& key, uint32_t src_ip, uint32_t dst_ip,
              uint16_t sport, uint16_t dport)
{
    uint8_t input[12];
    store_be32(input, src_ip);
    store_be32(input + 4, dst_ip);
    store_be16(input + 8, sport);
    store_be16(input + 10, dport);
    return toeplitz_hash(key, input, sizeof(input));
}

RssTable::RssTable(const RssKey& key)
{
    uint8_t input[kMaxInput] = {};
    for (size_t pos = 0; pos < kMaxInput; ++pos) {
        for (uint32_t b = 0; b < 256; ++b) {
            input[pos] = uint8_t(b);
            table_[pos][b] = toeplitz_hash(key, input, pos + 1);
        }
        input[pos] = 0;
    }
}

const RssTable&
default_rss_table()
{
    static const RssTable table(default_rss_key());
    return table;
}

} // namespace fld::net
