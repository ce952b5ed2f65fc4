#include "fld/flexdriver.h"

#include <algorithm>
#include <cstring>

#include "nic/nic.h"
#include "sim/trace.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace fld::core {

FlexDriver::FlexDriver(std::string name, sim::EventQueue& eq,
                       pcie::PcieFabric& fabric, pcie::PortId port,
                       uint64_t bar_base, uint64_t nic_bar_base,
                       FldConfig cfg)
    : name_(std::move(name)), eq_(eq), fabric_(fabric), port_(port),
      bar_base_(bar_base), nic_bar_base_(nic_bar_base), cfg_(cfg),
      txq_(cfg.num_tx_queues),
      desc_pool_(cfg.tx_desc_pool),
      tx_xlt_(cfg.tx_desc_pool),
      tx_buf_(cfg.tx_buffer_bytes, cfg.num_tx_queues,
              cfg.tx_vwindow_bytes),
      rx_sram_(cfg.rx_buffer_bytes),
      rx_sram_arena_{name_ + " rx SRAM", 0, cfg.rx_buffer_bytes}
{
    desc_free_.reserve(cfg.tx_desc_pool);
    for (uint32_t i = 0; i < cfg.tx_desc_pool; ++i)
        desc_free_.push_back(cfg.tx_desc_pool - 1 - i);

    // On-die memory accounting (the Table 3 story, instantiated).
    budget_.add("tx descriptor pool (8 B compressed)",
                uint64_t(cfg.tx_desc_pool) * 8);
    budget_.add("tx ring translation (cuckoo)", tx_xlt_.memory_bytes());
    budget_.add("tx data buffer", cfg.tx_buffer_bytes);
    budget_.add("tx data translation", tx_buf_.xlt_bytes());
    budget_.add("rx data buffer", cfg.rx_buffer_bytes);
    budget_.add("cq storage (15 B compressed)",
                uint64_t(cfg.cq_entries) * 2 * 15);
    budget_.add("producer indices",
                uint64_t(cfg.num_tx_queues + 1) * 4);

    if (cfg.flow_capacity > 0) {
        flows_ = std::make_unique<FlowDirectory>(FlowDirectoryConfig{
            .flow_capacity = cfg.flow_capacity,
            .shards = kFlowShards,
            .tenants = cfg.flow_tenants,
            .sketch_enabled = kFlowSketch});
        flows_->attach_budget(budget_);
    }
}

/** Datapath flow accounting: learn flows from the traffic itself.
 *  The flow key folds the steering context (flow_tag / completion
 *  key) with a per-direction salt so TX and RX flows stay distinct;
 *  the tenant is the context id, as FLD-E tags are the multi-tenancy
 *  handle (§5.4). */
void
FlexDriver::note_flow(uint64_t key, uint32_t tenant_hint,
                      uint32_t bytes)
{
    if (!flows_)
        return;
    flows_->record_auto(key, uint16_t(tenant_hint % cfg_.flow_tenants),
                        bytes);
}

uint64_t
FlexDriver::read_processing_ps() const
{
    // On-the-fly WQE synthesis: a handful of FPGA cycles.
    return uint64_t(double(cfg_.pipeline_cycles) * 1000.0 /
                    cfg_.clock_mhz) * 1000;
}

// ---------------------------------------------------------------------
// Control-plane binding
// ---------------------------------------------------------------------

void
FlexDriver::bind_tx_queue(uint32_t q, uint32_t nic_sqn,
                          uint32_t completion_key, bool is_rdma)
{
    if (q >= txq_.size())
        fatal("bind_tx_queue: bad queue %u", q);
    txq_[q].nic_sqn = nic_sqn;
    txq_[q].completion_key = completion_key;
    txq_[q].is_rdma = is_rdma;
    txq_[q].bound = true;
}

void
FlexDriver::bind_rx_queue(uint32_t completion_key, uint32_t nic_rqn,
                          bool is_rdma, uint32_t buffer_count)
{
    RxBinding b;
    b.nic_rqn = nic_rqn;
    b.is_rdma = is_rdma;
    b.buffer_count = buffer_count;
    b.sram_base = rx_sram_arena_.alloc(
        uint64_t(buffer_count) * rx_buffer_bytes_per_buffer(), 1);
    b.pi = buffer_count;
    rx_[completion_key] = b;
    issue_rx_doorbell(completion_key);
}

uint64_t
FlexDriver::tx_ring_addr(uint32_t q) const
{
    return bar_base_ + kTxRingRegion +
           uint64_t(q) * cfg_.tx_ring_entries * nic::kWqeStride;
}

uint64_t
FlexDriver::tx_cq_addr() const
{
    return bar_base_ + kCqRegion;
}

uint64_t
FlexDriver::rx_cq_addr() const
{
    return bar_base_ + kCqRegion +
           uint64_t(cfg_.cq_entries) * nic::kCqeStride;
}

uint64_t
FlexDriver::rx_buffer_addr(uint32_t rx_key, uint32_t buffer_index) const
{
    auto it = rx_.find(rx_key);
    if (it == rx_.end())
        fatal("rx_buffer_addr: unknown rx binding %u", rx_key);
    return bar_base_ + kRxDataRegion + it->second.sram_base +
           uint64_t(buffer_index) * rx_buffer_bytes_per_buffer();
}

void
FlexDriver::report(FldError::Type type, uint32_t queue)
{
    if (errors_)
        errors_(FldError{type, queue});
}

// ---------------------------------------------------------------------
// Accelerator-facing transmit
// ---------------------------------------------------------------------

TxCredits
FlexDriver::tx_credits(uint32_t q) const
{
    if (q >= txq_.size())
        return {};
    TxCredits c;
    uint32_t ring_free =
        cfg_.tx_ring_entries - uint32_t(txq_[q].outstanding.size());
    c.descriptors =
        std::min<uint32_t>(uint32_t(desc_free_.size()), ring_free);
    if (tx_xlt_.full())
        c.descriptors = 0;
    c.buffer_bytes = tx_buf_.available(q);
    return c;
}

bool
FlexDriver::tx(uint32_t q, StreamPacket&& pkt)
{
    if (q >= txq_.size() || !txq_[q].bound) {
        report(FldError::Type::BadQueue, q);
        return false;
    }
    TxQueue& txq = txq_[q];
    uint32_t len = uint32_t(pkt.size());

    if (desc_free_.empty() ||
        txq.outstanding.size() >= cfg_.tx_ring_entries) {
        stats_.tx_rejected++;
        report(FldError::Type::TxNoCredits, q);
        return false;
    }
    uint32_t slot = txq.pi % cfg_.tx_ring_entries;
    uint64_t key = uint64_t(q) << 32 | slot;
    uint32_t pool_idx = desc_free_.back();
    if (!tx_xlt_.insert(key, pool_idx)) {
        // Stash full: hardware would stall; we reject and report.
        stats_.tx_rejected++;
        report(FldError::Type::CuckooStall, q);
        return false;
    }
    auto voff = tx_buf_.alloc(q, len);
    if (!voff) {
        tx_xlt_.erase(key);
        stats_.tx_rejected++;
        report(FldError::Type::TxNoCredits, q);
        return false;
    }
    desc_free_.pop_back();

    tx_buf_.write(q, *voff, pkt.data.data(), len);

    CompressedTxDesc& d = desc_pool_[pool_idx];
    d.valid = true;
    d.is_nop = false;
    d.voff = uint32_t(*voff);
    d.len = len;
    d.wqe_index = uint16_t(txq.pi);
    d.msg_id = pkt.meta.msg_id;
    d.flow_tag = pkt.meta.context_id;
    d.next_table = pkt.meta.next_table;
    // Trace correlation: tag fresh packets at their origin so every
    // downstream transaction (fetch, DMA, wire, CQE) can be joined.
    if (pkt.meta.corr == 0) {
        if (auto* tr = sim::Tracer::active())
            pkt.meta.corr = tr->next_corr();
    }
    d.corr = pkt.meta.corr;
    // Selective completion signalling: completions both free on-die
    // state and return credits, so sign periodically and when the
    // queue would otherwise go quiet.
    txq.unsignaled++;
    bool signal = txq.unsignaled >= cfg_.signal_interval ||
                  txq.outstanding.empty();
    d.signaled = signal;
    if (signal) {
        txq.unsignaled = 0;
        txq.signaled_outstanding++;
    }

    txq.outstanding.push_back(pool_idx);
    txq.pi++;
    stats_.tx_packets++;
    stats_.tx_bytes += len;
    note_flow(uint64_t(d.flow_tag) << 16 | q, d.flow_tag, len);

    issue_tx_doorbell(q);
    return true;
}

void
FlexDriver::issue_tx_doorbell(uint32_t q)
{
    TxQueue& txq = txq_[q];
    if (!txq.doorbell.start())
        return;
    stats_.doorbells++;

    // WQE-by-MMIO for lone posts (latency optimization, §6): carry
    // the synthesized WQE inside the doorbell write.
    bool lone = cfg_.wqe_by_mmio && txq.outstanding.size() == 1;
    uint8_t db[4 + nic::kWqeStride];
    size_t db_len = lone ? 4 + nic::kWqeStride : 4;
    store_le32(db, txq.pi);
    if (lone) {
        uint32_t slot = (txq.pi - 1) % cfg_.tx_ring_entries;
        synthesize_wqe(q, slot, db + 4);
    }
    uint64_t addr = nic_bar_base_ + nic::NicDevice::kSqDbBase +
                    uint64_t(txq.nic_sqn) * 8;
    fabric_.write(port_, addr, db, db_len, [this, q] {
        if (txq_[q].doorbell.landed())
            issue_tx_doorbell(q);
    });
}

void
FlexDriver::issue_rx_doorbell(uint32_t rx_key)
{
    auto it = rx_.find(rx_key);
    if (it == rx_.end())
        return;
    RxBinding& b = it->second;
    if (!b.doorbell.start())
        return;
    stats_.doorbells++;

    uint8_t db[4];
    store_le32(db, b.pi);
    uint64_t addr = nic_bar_base_ + nic::NicDevice::kRqDbBase +
                    uint64_t(b.nic_rqn) * 8;
    fabric_.write(port_, addr, db, sizeof db, [this, rx_key] {
        auto it2 = rx_.find(rx_key);
        if (it2 != rx_.end() && it2->second.doorbell.landed())
            issue_rx_doorbell(rx_key);
    });
}

// ---------------------------------------------------------------------
// BAR: the NIC's view of FLD
// ---------------------------------------------------------------------

void
FlexDriver::synthesize_wqe(uint32_t q, uint32_t slot, uint8_t* out)
{
    std::memset(out, 0, nic::kWqeStride);
    uint64_t key = uint64_t(q) << 32 | slot;
    auto pool_idx = tx_xlt_.lookup(key);
    if (!pool_idx)
        return; // NOP WQE — NIC should never read unposted slots
    const CompressedTxDesc& d = desc_pool_[*pool_idx];
    if (!d.valid)
        return;
    stats_.wqe_reads++;

    nic::Wqe wqe;
    if (d.is_nop) {
        wqe.opcode = nic::WqeOpcode::Nop;
        wqe.signaled = true;
        wqe.wqe_index = d.wqe_index;
        wqe.qpn = txq_[q].nic_sqn;
        wqe.encode(out);
        return;
    }
    wqe.opcode = txq_[q].is_rdma ? nic::WqeOpcode::RdmaSend
                                 : nic::WqeOpcode::EthSend;
    wqe.signaled = d.signaled;
    wqe.wqe_index = d.wqe_index;
    wqe.qpn = txq_[q].nic_sqn;
    wqe.addr = bar_base_ + kTxDataRegion +
               uint64_t(q) * cfg_.tx_vwindow_bytes + d.voff;
    wqe.byte_count = d.len;
    wqe.msg_id = d.msg_id;
    wqe.flow_tag = d.flow_tag;
    wqe.next_table = d.next_table;
    wqe.corr = d.corr;
    wqe.encode(out);
}

void
FlexDriver::bar_read(uint64_t addr, uint8_t* out, size_t len)
{
    if (addr >= kCqRegion) {
        std::memset(out, 0, len);
        return;
    }
    if (addr >= kRxDataRegion) {
        uint64_t off = addr - kRxDataRegion;
        if (off + len > rx_sram_.size()) {
            std::memset(out, 0, len);
            return;
        }
        std::memcpy(out, rx_sram_.data() + off, len);
        return;
    }
    if (addr >= kTxDataRegion) {
        // Payload gather: translate virtual window bytes chunk-wise.
        uint64_t off = addr - kTxDataRegion;
        uint32_t q = uint32_t(off / cfg_.tx_vwindow_bytes);
        uint64_t voff = off % cfg_.tx_vwindow_bytes;
        if (q >= txq_.size()) {
            std::memset(out, 0, len);
            return;
        }
        tx_buf_.read(q, voff, out, uint32_t(len));
        return;
    }
    // Transmit descriptor ring region: synthesize WQEs on-the-fly.
    uint64_t ring_bytes =
        uint64_t(cfg_.tx_ring_entries) * nic::kWqeStride;
    for (size_t done = 0; done < len; done += nic::kWqeStride) {
        uint64_t a = addr + done;
        uint32_t q = uint32_t(a / ring_bytes);
        uint32_t slot = uint32_t((a % ring_bytes) / nic::kWqeStride);
        if (q >= txq_.size()) {
            std::memset(out + done, 0,
                        std::min<size_t>(nic::kWqeStride, len - done));
            continue;
        }
        uint8_t tmp[nic::kWqeStride];
        synthesize_wqe(q, slot, tmp);
        std::memcpy(out + done, tmp,
                    std::min<size_t>(nic::kWqeStride, len - done));
    }
}

void
FlexDriver::bar_write(uint64_t addr, const uint8_t* data, size_t len)
{
    if (addr >= kCqRegion) {
        bool block_sized =
            len >= nic::kCqeStride &&
            (len - nic::kCqeStride) % nic::kMiniCqeStride == 0;
        if (!block_sized) {
            FLD_WARN("fld", "%s: unexpected CQ write of %zu bytes",
                     name_.c_str(), len);
            return;
        }
        nic::Cqe cqe = nic::Cqe::decode(data);
        stats_.cqes++;
        uint64_t off = addr - kCqRegion;
        bool is_rx_cq =
            off >= uint64_t(cfg_.cq_entries) * nic::kCqeStride;
        if (cqe.opcode == nic::CqeOpcode::Error) {
            report(FldError::Type::NicError, cqe.qpn);
            return;
        }
        rx_burst_.clear();
        if (is_rx_cq)
            handle_rx_cqe(cqe);
        else
            handle_tx_cqe(cqe);

        // Mini-CQE block: expand the compressed entries, inheriting
        // qpn/opcode/rss from the title completion.
        size_t minis = (len - nic::kCqeStride) / nic::kMiniCqeStride;
        for (size_t i = 0; i < minis; ++i) {
            nic::MiniCqe mini = nic::MiniCqe::decode(
                data + nic::kCqeStride + i * nic::kMiniCqeStride);
            nic::Cqe expanded = cqe;
            expanded.byte_count = mini.byte_count;
            expanded.stride_index = mini.stride_index;
            expanded.rq_wqe_index = mini.rq_wqe_index;
            expanded.flags = mini.flags;
            expanded.flow_tag = mini.flow_tag;
            expanded.msg_id = 0;
            expanded.msg_offset = 0;
            // A 16 B mini cannot carry the 64-bit trace id, and the
            // title's id belongs to a different packet: mark untraced.
            expanded.corr = 0;
            stats_.cqes++;
            if (is_rx_cq)
                handle_rx_cqe(expanded);
            else
                handle_tx_cqe(expanded);
        }
        // The whole train leaves the FLD together: one batch
        // schedules every delivery this block produced.
        if (!rx_burst_.empty()) {
            eq_.schedule_batch(eq_.now() + read_processing_ps(),
                               rx_burst_.data(), rx_burst_.size());
            rx_burst_.clear();
        }
        return;
    }
    if (addr >= kRxDataRegion) {
        uint64_t off = addr - kRxDataRegion;
        if (off + len > rx_sram_.size()) {
            FLD_WARN("fld", "rx DMA beyond SRAM");
            return;
        }
        std::memcpy(rx_sram_.data() + off, data, len);
        return;
    }
    FLD_WARN("fld", "%s: unexpected BAR write at 0x%llx", name_.c_str(),
             (unsigned long long)addr);
}

// ---------------------------------------------------------------------
// Completion handling
// ---------------------------------------------------------------------

void
FlexDriver::handle_tx_cqe(const nic::Cqe& cqe)
{
    // Locate the queue by completion key: bindings are few, scan is
    // fine (a real design keeps a small CAM here).
    for (uint32_t q = 0; q < txq_.size(); ++q) {
        TxQueue& txq = txq_[q];
        if (!txq.bound || txq.completion_key != cqe.qpn)
            continue;

        // Selective signalling: everything up to wqe_counter is done.
        uint32_t outstanding = uint32_t(txq.outstanding.size());
        uint32_t freed_descs = nic::retire_count(
            cqe.wqe_counter, uint16_t(txq.pi - outstanding), outstanding);
        uint32_t freed_bytes = 0;
        for (uint32_t i = 0; i < freed_descs; ++i) {
            uint32_t pool_idx = txq.outstanding.front();
            txq.outstanding.pop_front();
            CompressedTxDesc& d = desc_pool_[pool_idx];
            uint64_t key = uint64_t(q) << 32 |
                           (d.wqe_index % cfg_.tx_ring_entries);
            tx_xlt_.erase(key);
            if (!d.is_nop) {
                tx_buf_.free_oldest(q);
                freed_bytes += d.len;
            }
            txq.signaled_outstanding -= d.signaled;
            d.valid = false;
            desc_free_.push_back(pool_idx);
        }
        // Drain: if unsignaled descriptors remain with no signaled one
        // behind them, their buffers would be held forever. Post a
        // signaled NOP to flush the tail (drivers do the same).
        if (!txq.outstanding.empty() && txq.signaled_outstanding == 0)
            post_drain_nop(q);

        if (freed_descs && credit_handler_)
            credit_handler_(q, freed_descs, freed_bytes);
        return;
    }
}

void
FlexDriver::post_drain_nop(uint32_t q)
{
    TxQueue& txq = txq_[q];
    if (desc_free_.empty() ||
        txq.outstanding.size() >= cfg_.tx_ring_entries) {
        return; // a later completion will retry
    }
    uint32_t slot = txq.pi % cfg_.tx_ring_entries;
    uint64_t key = uint64_t(q) << 32 | slot;
    uint32_t pool_idx = desc_free_.back();
    if (!tx_xlt_.insert(key, pool_idx))
        return;
    desc_free_.pop_back();

    CompressedTxDesc& d = desc_pool_[pool_idx];
    d.valid = true;
    d.is_nop = true;
    d.signaled = true;
    d.voff = 0;
    d.len = 0;
    d.wqe_index = uint16_t(txq.pi);
    d.msg_id = 0;
    txq.outstanding.push_back(pool_idx);
    txq.pi++;
    txq.unsignaled = 0;
    txq.signaled_outstanding++;
    issue_tx_doorbell(q);
}

void
FlexDriver::handle_rx_cqe(const nic::Cqe& cqe)
{
    auto it = rx_.find(cqe.qpn);
    if (it == rx_.end()) {
        FLD_WARN("fld", "rx CQE for unknown key %u", cqe.qpn);
        return;
    }
    RxBinding& b = it->second;

    // In-order buffer recycling (§5.2): the NIC walked past every
    // buffer older than the one this CQE lands in, so recycle them by
    // bumping the producer index — the host-memory ring descriptors
    // themselves are never touched.
    if (uint32_t n = nic::rx_advance(b.pi, b.buffer_count,
                                     cqe.rq_wqe_index)) {
        b.pi += n;
        stats_.buffers_recycled += n;
        issue_rx_doorbell(cqe.qpn);
    }

    // Assemble the stream packet from RX SRAM.
    uint32_t buffer_index = cqe.rq_wqe_index % b.buffer_count;
    uint64_t base = b.sram_base +
                    uint64_t(buffer_index) * rx_buffer_bytes_per_buffer() +
                    (uint64_t(cqe.stride_index) << cfg_.rx_stride_shift);
    if (base + cqe.byte_count > rx_sram_.size()) {
        FLD_WARN("fld", "rx CQE points outside SRAM");
        return;
    }

    StreamPacket pkt;
    // Intentional copy: models the FLD pulling the frame out of RX
    // SRAM into the accelerator stream; the SRAM slot is recycled.
    pkt.data.assign(rx_sram_.begin() + long(base),
                    rx_sram_.begin() + long(base + cqe.byte_count));
    pkt.meta.queue = cqe.qpn;
    pkt.meta.context_id = cqe.flow_tag;
    pkt.meta.rss_hash = cqe.rss_hash;
    pkt.meta.l3_csum_ok = cqe.flags & nic::kCqeL3Ok;
    pkt.meta.l4_csum_ok = cqe.flags & nic::kCqeL4Ok;
    pkt.meta.ip_fragment = cqe.flags & nic::kCqeIpFrag;
    pkt.meta.tunneled = cqe.flags & nic::kCqeTunneled;
    pkt.meta.is_rdma = b.is_rdma;
    pkt.meta.corr = cqe.corr;
    if (b.is_rdma) {
        pkt.meta.msg_id = cqe.msg_id;
        pkt.meta.msg_offset = cqe.msg_offset;
        pkt.meta.msg_last = cqe.flags & nic::kCqeRdmaLast;
        if (pkt.meta.msg_last)
            pkt.meta.msg_len = cqe.msg_offset + cqe.byte_count;
    } else {
        pkt.meta.next_table = cqe.msg_offset;
    }

    stats_.rx_packets++;
    stats_.rx_bytes += pkt.size();
    note_flow((1ull << 63) | uint64_t(cqe.flow_tag) << 32 |
                  cqe.rss_hash,
              cqe.flow_tag, uint32_t(pkt.size()));

    if (rx_handler_) {
        // Collected by bar_write into one schedule_batch: every
        // delivery of this CQE block fires at the same tick.
        rx_burst_.emplace_back([this, pkt = std::move(pkt)]() mutable {
            rx_handler_(std::move(pkt));
        });
    }
}

} // namespace fld::core
