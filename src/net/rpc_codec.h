/**
 * @file
 * RPC framing codec for the host fast path application tier.
 *
 * Frames travel over the per-connection TCP byte stream, which the
 * fast path slices at MSS boundaries and the app tier slices again at
 * ring-descriptor boundaries — so the decoder must reassemble frames
 * from arbitrary fragmentation and must never desynchronise: any
 * corruption of the length prefix (or any other header byte) is
 * detected by a header checksum and turns the stream into a sticky,
 * deterministic error state instead of a misaligned re-parse.
 *
 * Wire format (little-endian, 24-byte header then payload):
 *
 *   off  size  field
 *     0     2  magic        0xF1D0
 *     2     1  version      1
 *     3     1  method       dispatcher method id
 *     4     4  payload_len  bytes following the header
 *     8     8  request_id   echoed verbatim in the response frame
 *    16     4  payload_csum FNV-1a over the payload, truncated to 32b
 *    20     4  header_csum  FNV-1a over header bytes [0, 20)
 */
#ifndef FLD_NET_RPC_CODEC_H
#define FLD_NET_RPC_CODEC_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/fifo.h"

namespace fld::rpc {

constexpr uint16_t kFrameMagic = 0xF1D0;
constexpr uint8_t kFrameVersion = 1;
constexpr size_t kHeaderBytes = 24;

/** Upper bound a decoder will accept for payload_len by default. */
constexpr uint32_t kDefaultMaxPayload = 64 * 1024;

struct Frame
{
    uint8_t method = 0;
    uint64_t request_id = 0;
    std::vector<uint8_t> payload;
};

/** 32-bit FNV-1a, the checksum both header and payload fields use. */
uint32_t frame_checksum(const uint8_t* data, size_t len);

/** Serialise one frame (header + payload) onto `out`. */
void append_frame(std::vector<uint8_t>& out, uint8_t method,
                  uint64_t request_id, const uint8_t* payload,
                  size_t payload_len);

std::vector<uint8_t> encode_frame(uint8_t method, uint64_t request_id,
                                  const uint8_t* payload,
                                  size_t payload_len);
std::vector<uint8_t> encode_frame(const Frame& f);

enum class DecodeError : uint8_t
{
    None = 0,
    BadMagic,
    BadVersion,
    BadHeaderChecksum, ///< flipped length prefix lands here
    Oversize,          ///< payload_len above the configured bound
    BadPayloadChecksum,
};

const char* to_string(DecodeError e);

/**
 * Streaming frame reassembler. feed() accepts byte runs fragmented at
 * any boundary (MSS segments, ring descriptors, single bytes); next()
 * pops completed frames in order. The first malformed header or
 * payload poisons the decoder: error() becomes true, every buffered
 * and future byte is discarded, and no further frame is ever emitted
 * — the deterministic-rejection contract the property tests pin.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(uint32_t max_payload = kDefaultMaxPayload)
        : max_payload_(max_payload)
    {
    }

    /** Returns false once the decoder is in the error state. */
    bool feed(const uint8_t* data, size_t len);

    /** Pop the next completed frame, if any. */
    bool next(Frame* out);

    bool error() const { return err_ != DecodeError::None; }
    DecodeError error_code() const { return err_; }

    size_t buffered() const { return buf_.size() - off_; }
    size_t pending_frames() const { return ready_.size(); }
    uint64_t frames_decoded() const { return frames_decoded_; }
    uint64_t bytes_fed() const { return bytes_fed_; }

    /** Forget buffered bytes, queued frames and any error state. */
    void reset();

  private:
    void parse();

    uint32_t max_payload_;
    std::vector<uint8_t> buf_;
    size_t off_ = 0; ///< parse cursor into buf_ (compacted lazily)
    Fifo<Frame> ready_;
    DecodeError err_ = DecodeError::None;
    uint64_t frames_decoded_ = 0;
    uint64_t bytes_fed_ = 0;
};

} // namespace fld::rpc

#endif // FLD_NET_RPC_CODEC_H
