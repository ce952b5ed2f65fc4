/**
 * @file
 * The NIC ring protocol every driver of the NIC follows, kept once.
 *
 * FLD and the host drivers drive the same unmodified NIC through the
 * same ring interface (§5.2): WQE and CQE rings, producer-index
 * doorbells, and MPRQ receive buffers recycled in posting order. The
 * rules that interface imposes live here; what a driver stores and
 * when it signals stays with the driver.
 *
 *  - Doorbell coalescing: at most one doorbell write per ring is in
 *    flight; a post while one is in flight marks the ring dirty, and
 *    the landed write re-rings once with the latest producer index.
 *  - TX retire: a completion carries the 16-bit index of the last WQE
 *    it covers (selective signalling). Outstanding WQE indices are
 *    consecutive, so the WQEs it retires are counted from the signed
 *    16-bit distance to the oldest one.
 *  - RX recycle: ring slot i permanently describes buffer
 *    i % buffers, so the descriptors are written once and a buffer is
 *    reposted by bumping the producer index. The NIC only fills posted
 *    buffers, [pi - buffers, pi) in 16-bit index space; a completion
 *    outside that window is stale: it reposts nothing and its buffer
 *    is not read.
 */
#ifndef FLD_NIC_RING_PROTOCOL_H
#define FLD_NIC_RING_PROTOCOL_H

#include <algorithm>
#include <cstdint>

#include "nic/descriptors.h"

namespace fld::nic {

/** One ring's doorbell: at most one write in flight. */
class DoorbellCoalescer
{
  public:
    /** True if the caller writes the doorbell now; false while a write
     *  is in flight, which marks the ring dirty instead. */
    bool start()
    {
        if (inflight_) {
            dirty_ = true;
            return false;
        }
        inflight_ = true;
        return true;
    }

    /** The in-flight write landed: true if a post was coalesced into
     *  it, and the caller must ring again. */
    bool landed()
    {
        inflight_ = false;
        bool again = dirty_;
        dirty_ = false;
        return again;
    }

  private:
    bool inflight_ = false;
    bool dirty_ = false;
};

/**
 * WQEs a TX completion for @p wqe_counter retires, out of
 * @p outstanding ones whose indices run consecutively from @p oldest.
 * A counter behind @p oldest (negative signed distance) retires none.
 */
inline uint32_t
retire_count(uint16_t wqe_counter, uint16_t oldest, uint32_t outstanding)
{
    int16_t delta = int16_t(uint16_t(wqe_counter - oldest));
    if (delta < 0)
        return 0;
    return std::min(uint32_t(delta) + 1, outstanding);
}

/**
 * True if RX buffer @p index is posted, with producer index @p pi and
 * @p buffers buffers posted: inside [pi - buffers, pi) in 16-bit
 * index space. A completion for any other index is stale: the NIC may
 * be refilling its buffer, so it is dropped, not delivered.
 */
inline bool
rx_posted(uint32_t pi, uint32_t buffers, uint16_t index)
{
    return uint16_t(index - uint16_t(pi - buffers)) < buffers;
}

/**
 * Buffers to repost when an RX completion lands in posted buffer
 * @p index (see rx_posted()): every buffer older than @p index. A
 * stale @p index reposts nothing.
 */
inline uint32_t
rx_advance(uint32_t pi, uint32_t buffers, uint16_t index)
{
    return rx_posted(pi, buffers, index)
               ? uint16_t(index - uint16_t(pi - buffers))
               : 0;
}

/**
 * Writes an @p entries-slot RX descriptor ring at @p ring: slot i is
 * @p desc pointing at buffer i % @p buffers, whose fabric address is
 * @p addr_of(buffer).
 */
template <typename AddrOf>
void
fill_rx_ring(uint8_t* ring, uint32_t entries, uint32_t buffers,
             RxDesc desc, AddrOf addr_of)
{
    for (uint32_t i = 0; i < entries; ++i) {
        desc.addr = addr_of(i % buffers);
        desc.encode(ring + uint64_t(i) * kRxDescStride);
    }
}

} // namespace fld::nic

#endif // FLD_NIC_RING_PROTOCOL_H
