/**
 * @file
 * Host-memory NIC rings: the ring interface both host drivers use.
 *
 * The CPU driver and the host RDMA client drive the same unmodified
 * NIC the same way: WQE and CQE rings plus MPRQ receive buffers in
 * host memory, MMIO doorbells, and in-order buffer recycling.
 * HostRings owns that mechanism once: an arena of the node's host
 * memory, one completion queue, and per queue an SQ with a payload
 * slot per WQE and an RQ with its buffers posted. Policy (signalling,
 * CPU costs, what a completion delivers) stays with each driver.
 */
#ifndef FLD_DRIVER_HOST_RINGS_H
#define FLD_DRIVER_HOST_RINGS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/host.h"
#include "nic/nic.h"
#include "nic/ring_protocol.h"
#include "pcie/endpoint.h"
#include "pcie/fabric.h"
#include "util/arena.h"

namespace fld::driver {

/** The node a host driver attaches to, and its slice of host memory. */
struct HostAttach
{
    sim::EventQueue& eq;
    pcie::PcieFabric& fabric;
    pcie::PortId port; ///< the host's PCIe port
    pcie::MemoryEndpoint& mem;
    uint64_t mem_dma_base; ///< fabric address of mem offset 0
    nic::NicDevice& nic;
    uint64_t nic_bar_base;
    HostNode& host;
    uint64_t arena_base; ///< the driver's arena, as mem offsets
    uint64_t arena_size;
};

/** Ring sizes of one queue. */
struct RingGeometry
{
    uint32_t sq_entries = 1024;
    uint32_t rq_entries = 256;
    uint32_t rx_buffers = 64;      ///< MPRQ buffers per RQ
    uint16_t rx_strides = 32;      ///< strides per buffer
    uint16_t rx_stride_shift = 11; ///< 2 KiB strides
};

class HostRings
{
  public:
    static constexpr uint32_t kCqEntries = 4096;

    using CqeHandler = std::function<void(const nic::Cqe&)>;

    /** Creates the CQ; @p on_cqe sees every completion written to it. */
    HostRings(std::string name, const HostAttach& at, CqeHandler on_cqe);
    HostRings(const HostRings&) = delete; ///< the CQ watch holds this
    HostRings& operator=(const HostRings&) = delete;

    /**
     * Creates an SQ with @p slot_bytes of payload per WQE and an RQ on
     * @p vport, posts the receive buffers and rings the first RQ
     * doorbell. Returns the new queue's index.
     */
    uint32_t add_queue(nic::VportId vport, const RingGeometry& g,
                       uint32_t slot_bytes);

    const HostAttach& node() const { return at_; }
    uint32_t sqn(uint32_t q) const { return queues_[q].sqn; }
    uint32_t rqn(uint32_t q) const { return queues_[q].rqn; }

    /** WQEs reserved on @p q and not yet completed. */
    size_t outstanding(uint32_t q) const
    {
        return queues_[q].sq_pi - queues_[q].sq_ci;
    }
    bool full(uint32_t q) const
    {
        return outstanding(q) >= queues_[q].geo.sq_entries - 1;
    }

    /** Claims the next SQ slot for a @p len-byte payload (fatal if it
     *  exceeds the slot) and returns its 16-bit WQE index. */
    uint16_t reserve(uint32_t q, size_t len);

    /**
     * Stages @p len bytes into @p wqe_index's slot, fills the WQE's
     * addr, byte_count and wqe_index, publishes it and rings the
     * coalesced SQ doorbell. With @p mmio_lone, a WQE that is the only
     * one outstanding rides inside the doorbell (WQE-by-MMIO, §6).
     * Posts must come in reserve order.
     */
    void post(uint32_t q, uint16_t wqe_index, nic::Wqe wqe,
              const uint8_t* bytes, size_t len, bool mmio_lone);

    /** Retires WQEs up to and including @p wqe_counter (16-bit wrap). */
    void complete_tx(uint32_t q, uint16_t wqe_counter);

    /** Host-memory offset of a receive completion's data. */
    uint64_t rx_addr(uint32_t q, const nic::Cqe& cqe) const;

    /** Reposts the buffers the NIC moved past, in order (none for a
     *  stale completion, see nic/ring_protocol.h). */
    void recycle_rx(uint32_t q, const nic::Cqe& cqe);

    /** Queue owning SQ (RQ) number @p n, or -1. */
    int find_sq(uint32_t n) const;
    int find_rq(uint32_t n) const;

  private:
    struct Queue
    {
        RingGeometry geo;
        uint32_t slot_bytes = 0;
        uint32_t sqn = 0;
        uint32_t rqn = 0;
        uint64_t sq_ring = 0;
        uint64_t slots = 0;        ///< per-WQE payload slots
        uint32_t sq_pi = 0;        ///< slots reserved
        uint32_t sq_published = 0; ///< WQEs actually written to memory
        uint32_t sq_ci = 0;        ///< WQEs retired
        uint32_t rq_pi = 0;
        nic::DoorbellCoalescer sq_doorbell;
        std::vector<uint64_t> rx_buffers; ///< buffer base offsets
    };

    void ring_sq_doorbell(uint32_t q, const uint8_t* inline_wqe = nullptr);
    void ring_rq_doorbell(const Queue& qu);

    std::string name_;
    HostAttach at_;
    Arena arena_;
    uint32_t cqn_ = 0;
    std::vector<Queue> queues_;
};

} // namespace fld::driver

#endif // FLD_DRIVER_HOST_RINGS_H
