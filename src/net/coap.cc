#include "net/coap.h"

#include <algorithm>

#include "util/bitops.h"

namespace fld::net {

namespace {
/** Encode a CoAP option delta/length nibble with extended bytes. */
void
encode_ext(std::vector<uint8_t>& out, size_t pos_nibble_high,
           uint32_t value)
{
    // Caller writes the nibble; this helper appends extension bytes.
    if (value >= 269) {
        uint16_t ext = uint16_t(value - 269);
        out.push_back(uint8_t(ext >> 8));
        out.push_back(uint8_t(ext));
    } else if (value >= 13) {
        out.push_back(uint8_t(value - 13));
    }
    (void)pos_nibble_high;
}

uint8_t
nibble_of(uint32_t value)
{
    if (value >= 269)
        return 14;
    if (value >= 13)
        return 13;
    return uint8_t(value);
}
} // namespace

std::vector<uint8_t>
CoapMessage::encode() const
{
    // The fixed header and the token are one block of known size:
    // size the vector for it instead of growing it byte by byte.
    std::vector<uint8_t> out(4 + token.size());
    out[0] = uint8_t(0x40 | (uint8_t(type) << 4) | (token.size() & 0x0f));
    out[1] = code;
    out[2] = uint8_t(message_id >> 8);
    out[3] = uint8_t(message_id);
    std::copy(token.begin(), token.end(), out.begin() + 4);

    uint16_t prev_opt = 0;
    for (const std::string& seg : uri_path) {
        uint32_t delta = kCoapOptionUriPath - prev_opt;
        uint32_t len = uint32_t(seg.size());
        out.push_back(uint8_t(nibble_of(delta) << 4 | nibble_of(len)));
        encode_ext(out, 0, delta);
        encode_ext(out, 0, len);
        out.insert(out.end(), seg.begin(), seg.end());
        prev_opt = kCoapOptionUriPath;
    }

    if (!payload.empty()) {
        out.push_back(0xff); // payload marker
        out.insert(out.end(), payload.begin(), payload.end());
    }
    return out;
}

namespace {
std::optional<uint32_t>
decode_ext(const uint8_t* data, size_t len, size_t& pos, uint8_t nibble)
{
    if (nibble < 13)
        return nibble;
    if (nibble == 13) {
        if (pos >= len)
            return std::nullopt;
        return 13u + data[pos++];
    }
    if (nibble == 14) {
        if (pos + 2 > len)
            return std::nullopt;
        uint32_t v = 269u + (uint32_t(data[pos]) << 8 | data[pos + 1]);
        pos += 2;
        return v;
    }
    return std::nullopt; // 15 is reserved
}
} // namespace

std::optional<CoapMessage>
CoapMessage::decode(const uint8_t* data, size_t len)
{
    if (len < 4)
        return std::nullopt;
    uint8_t ver = data[0] >> 6;
    if (ver != 1)
        return std::nullopt;

    CoapMessage msg;
    msg.type = CoapType((data[0] >> 4) & 3);
    uint8_t tkl = data[0] & 0x0f;
    if (tkl > 8)
        return std::nullopt;
    msg.code = data[1];
    msg.message_id = uint16_t(data[2]) << 8 | data[3];

    size_t pos = 4;
    if (pos + tkl > len)
        return std::nullopt;
    msg.token.assign(data + pos, data + pos + tkl);
    pos += tkl;

    uint32_t opt = 0;
    while (pos < len) {
        if (data[pos] == 0xff) {
            ++pos;
            if (pos >= len)
                return std::nullopt; // marker with empty payload
            msg.payload.assign(data + pos, data + len);
            break;
        }
        uint8_t byte = data[pos++];
        auto delta = decode_ext(data, len, pos, byte >> 4);
        auto olen = decode_ext(data, len, pos, byte & 0x0f);
        if (!delta || !olen || pos + *olen > len)
            return std::nullopt;
        opt += *delta;
        if (opt == kCoapOptionUriPath) {
            msg.uri_path.emplace_back(
                reinterpret_cast<const char*>(data + pos), *olen);
        }
        pos += *olen;
    }
    return msg;
}

} // namespace fld::net
