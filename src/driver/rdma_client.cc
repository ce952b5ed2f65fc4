#include "driver/rdma_client.h"

#include "sim/trace.h"

namespace fld::driver {

namespace {
constexpr uint32_t kCore = 0;
constexpr uint32_t kMaxMsgBytes = 64 * 1024; ///< per-WQE payload slot
/** Verbs post/poll CPU costs (kernel-bypass path). */
constexpr sim::TimePs kPostCost = sim::nanoseconds(60);
constexpr sim::TimePs kPollCost = sim::nanoseconds(40);
} // namespace

RdmaClient::RdmaClient(std::string name, const HostAttach& at,
                       nic::VportId vport)
    : rings_(std::move(name), at,
             [this](const nic::Cqe& cqe) { handle_cqe(cqe); })
{
    rings_.add_queue(vport, RingGeometry{}, kMaxMsgBytes);
    qpn_ = at.nic.create_qp({rings_.sqn(0), rings_.rqn(0), vport});
}

void
RdmaClient::connect(uint32_t remote_qpn, const net::MacAddr& local_mac,
                    const net::MacAddr& remote_mac)
{
    rings_.node().nic.connect_qp(qpn_,
                                 {remote_qpn, local_mac, remote_mac});
}

bool
RdmaClient::post_send(std::vector<uint8_t> payload, uint32_t msg_id)
{
    if (rings_.full(0))
        return false;
    uint16_t wqe_index = rings_.reserve(0, payload.size());
    messages_sent_++;

    // Trace correlation: tag fresh messages at their origin.
    uint64_t corr = 0;
    if (auto* tr = sim::Tracer::active())
        corr = tr->next_corr();

    rings_.node().host.run_on_core(
        kCore, kPostCost,
        [this, wqe_index, msg_id, corr, payload = std::move(payload)] {
            nic::Wqe wqe;
            wqe.opcode = nic::WqeOpcode::RdmaSend;
            wqe.signaled = true; // verbs clients poll per message
            wqe.msg_id = msg_id;
            wqe.corr = corr;
            rings_.post(0, wqe_index, wqe, payload.data(), payload.size(),
                        /*mmio_lone=*/true);
        });
    return true;
}

void
RdmaClient::handle_cqe(const nic::Cqe& cqe)
{
    if (cqe.qpn != qpn_)
        return;
    if (cqe.opcode == nic::CqeOpcode::TxOk) {
        rings_.complete_tx(0, cqe.wqe_counter);
        return;
    }
    if (cqe.opcode != nic::CqeOpcode::Rx)
        return;

    if (!rings_.recycle_rx(0, cqe))
        return; // stale: its buffer may already hold another frame

    // Per-packet MPRQ completion: copy the stride into the message
    // reassembly buffer (the incremental-processing property of §6).
    std::vector<uint8_t>& msg = rx_messages_[cqe.msg_id];
    if (msg.size() < cqe.msg_offset + cqe.byte_count)
        msg.resize(cqe.msg_offset + cqe.byte_count);
    rings_.node().mem.bar_read(rings_.rx_addr(0, cqe),
                               msg.data() + cqe.msg_offset,
                               cqe.byte_count);

    if (cqe.flags & nic::kCqeRdmaLast) {
        auto it = rx_messages_.find(cqe.msg_id);
        std::vector<uint8_t> data = std::move(it->second);
        rx_messages_.erase(it);
        messages_received_++;
        if (msg_handler_) {
            uint32_t id = cqe.msg_id;
            rings_.node().host.run_on_core(
                kCore, kPollCost,
                [this, id, data = std::move(data)]() mutable {
                    msg_handler_(id, std::move(data));
                });
        }
    }
}

} // namespace fld::driver
