#include "driver/host_rings.h"

#include <cstring>

#include "util/bitops.h"
#include "util/logging.h"

namespace fld::driver {

HostRings::HostRings(std::string name, const HostAttach& at,
                     CqeHandler on_cqe)
    : name_(std::move(name)), at_(at), arena_next_(at.arena_base)
{
    uint64_t cq_bytes = uint64_t(kCqEntries) * nic::kCqeStride;
    uint64_t cq_ring = alloc(cq_bytes);
    cqn_ = at_.nic.create_cq({at_.mem_dma_base + cq_ring, kCqEntries});
    at_.mem.add_watch(cq_ring, cq_bytes,
                      [this, on_cqe = std::move(on_cqe)](uint64_t addr,
                                                          size_t len) {
                          if (len != nic::kCqeStride)
                              return;
                          uint8_t buf[nic::kCqeStride];
                          at_.mem.bar_read(addr, buf, nic::kCqeStride);
                          on_cqe(nic::Cqe::decode(buf));
                      });
}

uint64_t
HostRings::alloc(uint64_t size, uint64_t align)
{
    arena_next_ = (arena_next_ + align - 1) & ~(align - 1);
    uint64_t addr = arena_next_;
    arena_next_ += size;
    if (arena_next_ > at_.arena_base + at_.arena_size)
        fatal("%s: host arena exhausted", name_.c_str());
    return addr;
}

uint32_t
HostRings::add_queue(nic::VportId vport, const RingGeometry& g,
                     uint32_t slot_bytes)
{
    uint64_t dma = at_.mem_dma_base;
    Queue& qu = queues_.emplace_back();
    qu.geo = g;
    qu.slot_bytes = slot_bytes;

    qu.sq_ring = alloc(uint64_t(g.sq_entries) * nic::kWqeStride);
    qu.sqn = at_.nic.create_sq(
        {dma + qu.sq_ring, g.sq_entries, cqn_, vport, 0.0});
    qu.slots = alloc(uint64_t(g.sq_entries) * slot_bytes, 4096);

    uint64_t rq_ring = alloc(uint64_t(g.rq_entries) * nic::kRxDescStride);
    qu.rqn = at_.nic.create_rq({dma + rq_ring, g.rq_entries, cqn_});

    // Ring slot i permanently maps to buffer i % rx_buffers; buffers
    // are recycled in order, so descriptors are never rewritten.
    uint32_t buf_bytes = uint32_t(g.rx_strides) << g.rx_stride_shift;
    for (uint32_t i = 0; i < g.rx_buffers; ++i)
        qu.rx_buffers.push_back(alloc(buf_bytes, 4096));
    for (uint32_t i = 0; i < g.rq_entries; ++i) {
        nic::RxDesc d;
        d.addr = dma + qu.rx_buffers[i % g.rx_buffers];
        d.byte_count = buf_bytes;
        d.stride_count = g.rx_strides;
        d.stride_shift = g.rx_stride_shift;
        d.encode(at_.mem.raw(rq_ring + uint64_t(i) * nic::kRxDescStride,
                             nic::kRxDescStride));
    }
    qu.rq_pi = g.rx_buffers;
    ring_rq_doorbell(qu);
    return uint32_t(queues_.size() - 1);
}

uint16_t
HostRings::reserve(uint32_t q, size_t len)
{
    Queue& qu = queues_[q];
    if (len > qu.slot_bytes)
        fatal("%s: %zu-byte payload larger than its tx slot",
              name_.c_str(), len);
    uint16_t wqe_index = uint16_t(qu.sq_pi++);
    qu.outstanding.push_back(wqe_index);
    return wqe_index;
}

void
HostRings::post(uint32_t q, uint16_t wqe_index, nic::Wqe wqe,
                const uint8_t* bytes, size_t len, bool mmio_lone)
{
    Queue& qu = queues_[q];
    uint32_t slot = wqe_index % qu.geo.sq_entries;
    uint64_t data = qu.slots + uint64_t(slot) * qu.slot_bytes;
    if (len)
        // Intentional copy: stages the payload into DMA-visible host
        // memory, the data movement a real driver performs.
        std::memcpy(at_.mem.raw(data, len), bytes, len);

    wqe.wqe_index = wqe_index;
    wqe.addr = at_.mem_dma_base + data;
    wqe.byte_count = uint32_t(len);
    uint8_t* enc = at_.mem.raw(qu.sq_ring + uint64_t(slot) * nic::kWqeStride,
                               nic::kWqeStride);
    wqe.encode(enc);
    // The doorbell must only advertise WQEs already visible in memory;
    // posts retire in reserve order.
    qu.sq_published++;
    bool lone = mmio_lone && qu.outstanding.size() == 1 &&
                qu.sq_published == qu.sq_pi;
    ring_sq_doorbell(q, lone ? enc : nullptr);
}

void
HostRings::ring_sq_doorbell(uint32_t q, const uint8_t* inline_wqe)
{
    Queue& qu = queues_[q];
    if (qu.db_inflight) {
        qu.db_dirty = true;
        return;
    }
    qu.db_inflight = true;
    uint8_t db[4 + nic::kWqeStride];
    size_t db_len = inline_wqe ? 4 + nic::kWqeStride : 4;
    store_le32(db, qu.sq_published);
    if (inline_wqe)
        std::memcpy(db + 4, inline_wqe, nic::kWqeStride);
    at_.fabric.write(at_.port,
                     at_.nic_bar_base + nic::NicDevice::kSqDbBase +
                         uint64_t(qu.sqn) * 8,
                     db, db_len, [this, q] {
                         Queue& qu2 = queues_[q];
                         qu2.db_inflight = false;
                         if (qu2.db_dirty) {
                             qu2.db_dirty = false;
                             ring_sq_doorbell(q);
                         }
                     });
}

void
HostRings::ring_rq_doorbell(const Queue& qu)
{
    uint8_t db[4];
    store_le32(db, qu.rq_pi);
    at_.fabric.write(at_.port,
                     at_.nic_bar_base + nic::NicDevice::kRqDbBase +
                         uint64_t(qu.rqn) * 8,
                     db, sizeof db);
}

void
HostRings::complete_tx(uint32_t q, uint16_t wqe_counter)
{
    Fifo<uint16_t>& out = queues_[q].outstanding;
    while (!out.empty()) {
        int16_t delta = int16_t(wqe_counter - out.front());
        if (delta < 0)
            break;
        out.pop_front();
        if (delta == 0)
            break;
    }
}

uint64_t
HostRings::rx_addr(uint32_t q, const nic::Cqe& cqe) const
{
    const Queue& qu = queues_[q];
    return qu.rx_buffers[cqe.rq_wqe_index % qu.geo.rx_buffers] +
           (uint64_t(cqe.stride_index) << qu.geo.rx_stride_shift);
}

void
HostRings::recycle_rx(uint32_t q, const nic::Cqe& cqe)
{
    Queue& qu = queues_[q];
    static_assert(sizeof(cqe.rq_wqe_index) == 2, "wrap math");
    uint16_t last = uint16_t(qu.rq_pi - qu.geo.rx_buffers);
    uint16_t delta = uint16_t(cqe.rq_wqe_index - last);
    if (delta > 0 && delta < 0x8000) {
        qu.rq_pi += delta;
        ring_rq_doorbell(qu);
    }
}

int
HostRings::find_sq(uint32_t n) const
{
    for (size_t q = 0; q < queues_.size(); ++q)
        if (queues_[q].sqn == n)
            return int(q);
    return -1;
}

int
HostRings::find_rq(uint32_t n) const
{
    for (size_t q = 0; q < queues_.size(); ++q)
        if (queues_[q].rqn == n)
            return int(q);
    return -1;
}

} // namespace fld::driver
