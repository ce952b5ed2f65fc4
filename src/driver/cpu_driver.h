/**
 * @file
 * Software (CPU) NIC driver — the baseline FLD is compared against.
 *
 * A DPDK/mlx5-style poll-mode driver: full-size descriptor rings and
 * data buffers in host memory (Table 2b "Software" column), MMIO
 * doorbells, MPRQ receive, selective TX completion signalling
 * (EMPW/inline disabled, matching the paper's fair-comparison setup).
 * Supports multiple queue pairs, one host core per queue, so RSS
 * experiments and single-core bottlenecks behave faithfully. The rings
 * are HostRings; this class adds per-queue cores, selective
 * signalling, overload shedding and packet delivery.
 */
#ifndef FLD_DRIVER_CPU_DRIVER_H
#define FLD_DRIVER_CPU_DRIVER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/host_rings.h"
#include "net/packet.h"

namespace fld::driver {

/** Ring sizes (RingGeometry, shared by every queue) plus policy. */
struct CpuDriverConfig : RingGeometry
{
    uint32_t num_queues = 1;
    uint32_t signal_interval = 16;
    /** First host core used; queue i runs on core first_core + i. */
    uint32_t first_core = 0;
    /**
     * Overload bound: when the owning core's backlog exceeds this,
     * further packets are dropped at the driver (a real poll-mode
     * driver stops reposting buffers and the NIC tail-drops; the
     * effect — bounded queueing, load shedding — is the same).
     * 100 us corresponds to a ~1024-descriptor ring at small-packet
     * line rate.
     */
    sim::TimePs max_app_backlog = sim::microseconds(20);
    bool wqe_by_mmio = true; ///< inline lone WQEs in doorbells (§6)
};

/** Per-queue counters. */
struct CpuDriverStats
{
    uint64_t tx_packets = 0;
    uint64_t tx_bytes = 0;
    uint64_t rx_packets = 0;
    uint64_t rx_bytes = 0;
    uint64_t tx_backpressured = 0; ///< ring full at send time
    uint64_t rx_overload_dropped = 0; ///< app backlog bound exceeded
};

class CpuDriver
{
  public:
    /**
     * Creates the driver's rings on @p at's node (HostRings), posts
     * receive buffers and leaves steering to the caller (install
     * rules / TIRs over rqn()).
     */
    CpuDriver(std::string name, const HostAttach& at, nic::VportId vport,
              CpuDriverConfig cfg = {});

    uint32_t num_queues() const { return cfg_.num_queues; }
    uint32_t core_of(uint32_t q) const { return cfg_.first_core + q; }
    uint32_t sqn(uint32_t q = 0) const { return rings_.sqn(q); }
    uint32_t rqn(uint32_t q = 0) const { return rings_.rqn(q); }
    std::vector<uint32_t> all_rqns() const;

    /**
     * Transmit a frame on queue @p q: pays the driver's CPU cost on
     * the queue's core, writes the WQE + payload into host memory and
     * rings the doorbell. Returns false when the ring is full.
     */
    bool send(uint32_t q, net::Packet&& frame);

    /**
     * Packets delivered to the application after the driver's
     * receive-path CPU cost on the owning core.
     */
    using RxHandler = std::function<void(uint32_t q, net::Packet&&)>;
    void set_rx_handler(RxHandler fn) { rx_handler_ = std::move(fn); }

    const CpuDriverStats& stats() const { return stats_; }

  private:
    void handle_cqe(const nic::Cqe& cqe);
    void handle_rx(uint32_t q, const nic::Cqe& cqe);

    HostRings rings_;
    CpuDriverConfig cfg_;
    std::vector<uint32_t> unsignaled_; ///< per queue, since last signal
    RxHandler rx_handler_;
    CpuDriverStats stats_;
};

} // namespace fld::driver

#endif // FLD_DRIVER_CPU_DRIVER_H
