/**
 * @file
 * Wire protocol of the disaggregated ZUC cipher accelerator (§7).
 *
 * Requests and responses travel as RDMA SEND messages with a 64 B
 * header carrying the cryptographic key, IV material and metadata,
 * followed by the payload — matching the paper's request/response
 * format. Shared between the AFU and the client-side cryptodev-style
 * driver.
 */
#ifndef FLD_ACCEL_ZUC_PROTOCOL_H
#define FLD_ACCEL_ZUC_PROTOCOL_H

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "crypto/zuc.h"
#include "util/bitops.h"

namespace fld::accel {

constexpr size_t kZucHeaderLen = 64;

enum class ZucOp : uint8_t {
    Eea3Crypt = 0, ///< confidentiality: en/decrypt payload
    Eia3Mac = 1,   ///< integrity: compute 32-bit MAC
};

enum class ZucStatus : uint8_t {
    Ok = 0,
    BadRequest = 1,
};

/** 64 B request/response header. */
struct ZucHeader
{
    ZucOp op = ZucOp::Eea3Crypt;
    ZucStatus status = ZucStatus::Ok; ///< meaningful in responses
    uint8_t direction = 0;
    uint8_t bearer = 0;
    uint32_t count = 0;
    crypto::Zuc::Key key{};
    crypto::Zuc::Iv iv{};  ///< reserved (EEA3/EIA3 derive their own)
    uint32_t length_bits = 0;
    uint32_t mac = 0;      ///< EIA3 result in responses

    void encode(uint8_t out[kZucHeaderLen]) const
    {
        std::memset(out, 0, kZucHeaderLen);
        out[0] = uint8_t(op);
        out[1] = uint8_t(status);
        out[2] = direction;
        out[3] = bearer;
        store_le32(out + 4, count);
        std::memcpy(out + 8, key.data(), key.size());
        std::memcpy(out + 24, iv.data(), iv.size());
        store_le32(out + 40, length_bits);
        store_le32(out + 44, mac);
    }

    static ZucHeader decode(const uint8_t in[kZucHeaderLen])
    {
        ZucHeader h;
        h.op = ZucOp(in[0]);
        h.status = ZucStatus(in[1]);
        h.direction = in[2];
        h.bearer = in[3];
        h.count = load_le32(in + 4);
        std::memcpy(h.key.data(), in + 8, h.key.size());
        std::memcpy(h.iv.data(), in + 24, h.iv.size());
        h.length_bits = load_le32(in + 40);
        h.mac = load_le32(in + 44);
        return h;
    }
};

/** Assemble a request message: header + payload. */
inline std::vector<uint8_t>
zuc_request(const ZucHeader& hdr, const std::vector<uint8_t>& payload)
{
    uint8_t head[kZucHeaderLen];
    hdr.encode(head);
    std::vector<uint8_t> msg(kZucHeaderLen + payload.size());
    std::copy(head, head + kZucHeaderLen, msg.begin());
    std::copy(payload.begin(), payload.end(),
              msg.begin() + kZucHeaderLen);
    return msg;
}

/** Split a message into header + payload view; nullopt if too short. */
inline std::optional<std::pair<ZucHeader, std::vector<uint8_t>>>
zuc_parse(const std::vector<uint8_t>& msg)
{
    if (msg.size() < kZucHeaderLen)
        return std::nullopt;
    ZucHeader hdr = ZucHeader::decode(msg.data());
    std::vector<uint8_t> payload(msg.begin() + kZucHeaderLen,
                                 msg.end());
    return std::make_pair(hdr, std::move(payload));
}

} // namespace fld::accel

#endif // FLD_ACCEL_ZUC_PROTOCOL_H
