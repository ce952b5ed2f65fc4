/**
 * @file
 * Host-side RDMA verbs client.
 *
 * A software RC endpoint with rings in host memory, used by remote
 * clients talking to FLD-R accelerators (e.g., the disaggregated ZUC
 * cipher's DPDK cryptodev driver, §7) and by the FLD-R baselines.
 * Message receive reassembles per-packet MPRQ completions into whole
 * messages before delivery. The rings are HostRings; this class adds
 * the QP, connection setup and reassembly.
 */
#ifndef FLD_DRIVER_RDMA_CLIENT_H
#define FLD_DRIVER_RDMA_CLIENT_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "driver/host_rings.h"

namespace fld::driver {

class RdmaClient
{
  public:
    /** One RC QP on the default RingGeometry, driven from core 0. */
    RdmaClient(std::string name, const HostAttach& at, nic::VportId vport);

    uint32_t qpn() const { return qpn_; }

    /** Bind to the remote QP (connection management is software). */
    void connect(uint32_t remote_qpn, const net::MacAddr& local_mac,
                 const net::MacAddr& remote_mac);

    /**
     * Post an RDMA SEND of @p payload with message id @p msg_id.
     * Returns false when the send ring is full.
     */
    bool post_send(std::vector<uint8_t> payload, uint32_t msg_id);

    /** Whole reassembled messages received on the QP. */
    using MsgHandler =
        std::function<void(uint32_t msg_id, std::vector<uint8_t>&&)>;
    void set_msg_handler(MsgHandler fn) { msg_handler_ = std::move(fn); }

    uint64_t messages_sent() const { return messages_sent_; }
    uint64_t messages_received() const { return messages_received_; }

  private:
    void handle_cqe(const nic::Cqe& cqe);

    HostRings rings_;
    uint32_t qpn_ = 0;

    /** msg_id -> bytes received so far, placed at their offsets. */
    std::map<uint32_t, std::vector<uint8_t>> rx_messages_;

    MsgHandler msg_handler_;
    uint64_t messages_sent_ = 0;
    uint64_t messages_received_ = 0;
};

} // namespace fld::driver

#endif // FLD_DRIVER_RDMA_CLIENT_H
