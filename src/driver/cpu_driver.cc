#include "driver/cpu_driver.h"

#include "sim/trace.h"

namespace fld::driver {

namespace {
constexpr uint32_t kTxSlotBytes = 2048; ///< per-WQE payload slot
} // namespace

CpuDriver::CpuDriver(std::string name, const HostAttach& at,
                     nic::VportId vport, CpuDriverConfig cfg)
    : rings_(std::move(name), at,
             [this](const nic::Cqe& cqe) { handle_cqe(cqe); }),
      cfg_(cfg), unsignaled_(cfg.num_queues, 0)
{
    for (uint32_t q = 0; q < cfg_.num_queues; ++q)
        rings_.add_queue(vport, cfg_, kTxSlotBytes);
}

std::vector<uint32_t>
CpuDriver::all_rqns() const
{
    std::vector<uint32_t> out;
    for (uint32_t q = 0; q < cfg_.num_queues; ++q)
        out.push_back(rings_.rqn(q));
    return out;
}

bool
CpuDriver::send(uint32_t q, net::Packet&& frame)
{
    if (rings_.full(q)) {
        stats_.tx_backpressured++;
        return false;
    }
    // Selective signalling: every signal_interval-th WQE, and any WQE
    // posted to an idle ring, asks for a completion.
    bool idle = rings_.outstanding(q) == 0;
    uint16_t wqe_index = rings_.reserve(q, frame.size());
    bool signal = ++unsignaled_[q] >= cfg_.signal_interval || idle;
    if (signal)
        unsignaled_[q] = 0;

    stats_.tx_packets++;
    stats_.tx_bytes += frame.size();

    // Trace correlation: tag fresh packets at their origin.
    if (frame.meta.corr == 0) {
        if (auto* tr = sim::Tracer::active())
            frame.meta.corr = tr->next_corr();
    }

    // The driver's per-packet CPU work (descriptor write + doorbell).
    HostNode& host = rings_.node().host;
    host.run_on_core(
        core_of(q), host.packet_cost(frame.size(), /*tx=*/true),
        [this, q, wqe_index, signal, frame = std::move(frame)] {
            nic::Wqe wqe;
            wqe.opcode = nic::WqeOpcode::EthSend;
            wqe.signaled = signal;
            wqe.flow_tag = frame.meta.flow_tag;
            wqe.next_table = frame.meta.next_table;
            wqe.corr = frame.meta.corr;
            rings_.post(q, wqe_index, wqe, frame.bytes(), frame.size(),
                        cfg_.wqe_by_mmio);
        });
    return true;
}

void
CpuDriver::handle_cqe(const nic::Cqe& cqe)
{
    if (cqe.opcode == nic::CqeOpcode::TxOk) {
        if (int q = rings_.find_sq(cqe.qpn); q >= 0)
            rings_.complete_tx(uint32_t(q), cqe.wqe_counter);
    } else if (cqe.opcode == nic::CqeOpcode::Rx) {
        if (int q = rings_.find_rq(cqe.qpn); q >= 0)
            handle_rx(uint32_t(q), cqe);
    }
}

void
CpuDriver::handle_rx(uint32_t q, const nic::Cqe& cqe)
{
    if (!rings_.recycle_rx(q, cqe))
        return; // stale: its buffer may already hold another frame
    const HostAttach& at = rings_.node();
    net::Packet pkt;
    pkt.data.resize(cqe.byte_count);
    at.mem.bar_read(rings_.rx_addr(q, cqe), pkt.bytes(), cqe.byte_count);
    pkt.meta.flow_tag = cqe.flow_tag;
    pkt.meta.rss_hash = cqe.rss_hash;
    pkt.meta.l3_csum_ok = cqe.flags & nic::kCqeL3Ok;
    pkt.meta.l4_csum_ok = cqe.flags & nic::kCqeL4Ok;
    pkt.meta.tunneled = cqe.flags & nic::kCqeTunneled;
    pkt.meta.queue_id = uint16_t(q);
    pkt.meta.corr = cqe.corr;

    // Overload shedding: bounded queueing toward the application.
    if (at.host.core_free_at(core_of(q)) >
        at.eq.now() + cfg_.max_app_backlog) {
        stats_.rx_overload_dropped++;
        return;
    }

    stats_.rx_packets++;
    stats_.rx_bytes += pkt.size();

    // Driver poll loop: per-packet CPU cost before the app sees it.
    at.host.run_on_core(core_of(q),
                        at.host.packet_cost(pkt.size(), /*tx=*/false),
                        [this, q, pkt = std::move(pkt)]() mutable {
                            if (rx_handler_)
                                rx_handler_(q, std::move(pkt));
                        });
}

} // namespace fld::driver
