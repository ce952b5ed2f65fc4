#include "net/rpc_codec.h"

#include <cstring>

#include "util/logging.h"

namespace fld::rpc {

namespace {

void
put_u16(std::vector<uint8_t>& v, uint16_t x)
{
    v.push_back(uint8_t(x));
    v.push_back(uint8_t(x >> 8));
}

void
put_u32(std::vector<uint8_t>& v, uint32_t x)
{
    for (int i = 0; i < 4; ++i)
        v.push_back(uint8_t(x >> (8 * i)));
}

void
put_u64(std::vector<uint8_t>& v, uint64_t x)
{
    for (int i = 0; i < 8; ++i)
        v.push_back(uint8_t(x >> (8 * i)));
}

uint16_t
get_u16(const uint8_t* p)
{
    return uint16_t(p[0]) | uint16_t(p[1]) << 8;
}

uint32_t
get_u32(const uint8_t* p)
{
    uint32_t x = 0;
    for (int i = 0; i < 4; ++i)
        x |= uint32_t(p[i]) << (8 * i);
    return x;
}

uint64_t
get_u64(const uint8_t* p)
{
    uint64_t x = 0;
    for (int i = 0; i < 8; ++i)
        x |= uint64_t(p[i]) << (8 * i);
    return x;
}

} // namespace

uint32_t
frame_checksum(const uint8_t* data, size_t len)
{
    uint32_t h = 0x811c9dc5u; // FNV-1a 32-bit offset basis
    for (size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x01000193u;
    }
    return h;
}

void
append_frame(std::vector<uint8_t>& out, uint8_t method,
             uint64_t request_id, const uint8_t* payload,
             size_t payload_len)
{
    size_t header_at = out.size();
    out.reserve(out.size() + kHeaderBytes + payload_len);
    put_u16(out, kFrameMagic);
    out.push_back(kFrameVersion);
    out.push_back(method);
    put_u32(out, uint32_t(payload_len));
    put_u64(out, request_id);
    put_u32(out, frame_checksum(payload, payload_len));
    put_u32(out, frame_checksum(out.data() + header_at, 20));
    out.insert(out.end(), payload, payload + payload_len);
}

std::vector<uint8_t>
encode_frame(uint8_t method, uint64_t request_id,
             const uint8_t* payload, size_t payload_len)
{
    std::vector<uint8_t> out;
    append_frame(out, method, request_id, payload, payload_len);
    return out;
}

std::vector<uint8_t>
encode_frame(const Frame& f)
{
    return encode_frame(f.method, f.request_id, f.payload.data(),
                        f.payload.size());
}

const char*
to_string(DecodeError e)
{
    switch (e) {
    case DecodeError::None:
        return "none";
    case DecodeError::BadMagic:
        return "bad-magic";
    case DecodeError::BadVersion:
        return "bad-version";
    case DecodeError::BadHeaderChecksum:
        return "bad-header-checksum";
    case DecodeError::Oversize:
        return "oversize-payload";
    case DecodeError::BadPayloadChecksum:
        return "bad-payload-checksum";
    }
    return "?";
}

bool
FrameDecoder::feed(const uint8_t* data, size_t len)
{
    if (error())
        return false; // sticky: poisoned streams never resync
    buf_.insert(buf_.end(), data, data + len);
    parse();
    return !error();
}

bool
FrameDecoder::next(Frame* out)
{
    if (ready_.empty())
        return false;
    *out = std::move(ready_.front());
    ready_.pop_front();
    return true;
}

void
FrameDecoder::reset()
{
    buf_.clear();
    off_ = 0;
    ready_.clear();
    err_ = DecodeError::None;
}

void
FrameDecoder::parse()
{
    for (;;) {
        size_t avail = buf_.size() - off_;
        if (avail < kHeaderBytes)
            break;
        const uint8_t* h = buf_.data() + off_;
        if (get_u16(h) != kFrameMagic) {
            err_ = DecodeError::BadMagic;
            break;
        }
        if (h[2] != kFrameVersion) {
            err_ = DecodeError::BadVersion;
            break;
        }
        // The header checksum covers the length prefix, so a flipped
        // length is rejected here instead of silently re-framing the
        // stream at a garbage offset.
        if (frame_checksum(h, 20) != get_u32(h + 20)) {
            err_ = DecodeError::BadHeaderChecksum;
            break;
        }
        uint32_t plen = get_u32(h + 4);
        if (plen > max_payload_) {
            err_ = DecodeError::Oversize;
            break;
        }
        if (avail < kHeaderBytes + plen)
            break; // frame incomplete; wait for more bytes
        const uint8_t* payload = h + kHeaderBytes;
        if (frame_checksum(payload, plen) != get_u32(h + 16)) {
            err_ = DecodeError::BadPayloadChecksum;
            break;
        }
        Frame f;
        f.method = h[3];
        f.request_id = get_u64(h + 8);
        f.payload.assign(payload, payload + plen);
        ready_.push_back(std::move(f));
        ++frames_decoded_;
        off_ += kHeaderBytes + plen;
    }
    if (error()) {
        buf_.clear();
        off_ = 0;
        return;
    }
    // Compact lazily so long-lived streams stay O(bytes), not O(n^2).
    if (off_ > 0 && (off_ >= buf_.size() || off_ > 64 * 1024)) {
        buf_.erase(buf_.begin(), buf_.begin() + ptrdiff_t(off_));
        off_ = 0;
    }
}

} // namespace fld::rpc
