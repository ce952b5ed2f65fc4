/**
 * @file
 * Shared test harness: a simulated host + one or two NICs on a PCIe
 * fabric, with helpers that drive queues the way a driver does (rings
 * in host memory, MMIO doorbells, CQE polling via write watches).
 */
#ifndef FLD_TESTS_NIC_TEST_FIXTURE_H
#define FLD_TESTS_NIC_TEST_FIXTURE_H

#include <cstring>
#include <memory>
#include <vector>

#include "nic/nic.h"
#include "pcie/endpoint.h"
#include "pcie/fabric.h"
#include "sim/event_queue.h"

namespace fld::nic::testing {

constexpr uint64_t kHostMemBase = 0x0000'0000;
constexpr uint64_t kNicBarBase = 0x4000'0000;
constexpr uint64_t kNic2BarBase = 0x5000'0000;

/** One NIC with host-resident queues and doorbell/CQE helpers. */
struct NicHarness
{
    sim::EventQueue& eq;
    pcie::PcieFabric& fabric;
    pcie::MemoryEndpoint& hostmem;
    pcie::PortId host_port;
    uint64_t bar_base;
    std::unique_ptr<NicDevice> nic;
    uint64_t alloc_next;

    NicHarness(sim::EventQueue& eq_, pcie::PcieFabric& fabric_,
               pcie::MemoryEndpoint& hostmem_, pcie::PortId host_port_,
               uint64_t bar, const std::string& name, NicConfig cfg = {},
               uint64_t arena_base = 0x1000)
        : eq(eq_), fabric(fabric_), hostmem(hostmem_),
          host_port(host_port_), bar_base(bar), alloc_next(arena_base)
    {
        pcie::PortId nic_port =
            fabric.add_port(name + ".pcie", 50.0, sim::nanoseconds(150));
        nic = std::make_unique<NicDevice>(name, eq, fabric, nic_port,
                                          cfg);
        fabric.attach(nic_port, nic.get(), bar, NicDevice::kBarSize);
    }

    uint64_t alloc(uint64_t size, uint64_t align = 64)
    {
        alloc_next = (alloc_next + align - 1) & ~(align - 1);
        uint64_t addr = alloc_next;
        alloc_next += size;
        return addr;
    }

    /** Create a CQ whose CQEs are captured into @p out as they land. */
    uint32_t make_cq(uint32_t entries, std::vector<Cqe>* out)
    {
        uint64_t ring = alloc(uint64_t(entries) * kCqeStride);
        uint32_t cqn = nic->create_cq({ring, entries});
        hostmem.add_watch(ring, uint64_t(entries) * kCqeStride,
                          [this, ring, out](uint64_t addr, size_t len) {
                              if (len != kCqeStride)
                                  return;
                              uint8_t buf[kCqeStride];
                              hostmem.bar_read(addr, buf, kCqeStride);
                              out->push_back(Cqe::decode(buf));
                              (void)ring;
                          });
        return cqn;
    }

    struct Sq
    {
        uint32_t sqn = 0;
        uint64_t ring = 0;
        uint32_t entries = 0;
        uint32_t pi = 0;
    };

    Sq make_sq(uint32_t entries, uint32_t cqn, VportId vport,
               double rate = 0.0)
    {
        Sq sq;
        sq.ring = alloc(uint64_t(entries) * kWqeStride);
        sq.entries = entries;
        sq.sqn = nic->create_sq({sq.ring, entries, cqn, vport, rate});
        return sq;
    }

    struct Rq
    {
        uint32_t rqn = 0;
        uint64_t ring = 0;
        uint32_t entries = 0;
        uint32_t pi = 0;
        std::vector<uint64_t> buffers; ///< posted buffer addresses
    };

    Rq make_rq(uint32_t entries, uint32_t cqn)
    {
        Rq rq;
        rq.ring = alloc(uint64_t(entries) * kRxDescStride);
        rq.entries = entries;
        rq.rqn = nic->create_rq({rq.ring, entries, cqn});
        return rq;
    }

    /**
     * Post @p count MPRQ buffers and ring the RQ doorbell. Callers
     * injecting traffic immediately afterwards should drain the event
     * queue first so the NIC has fetched the descriptors (hardware
     * drivers post buffers well before traffic arrives).
     */
    void post_rx_buffers(Rq& rq, uint32_t count, uint16_t strides,
                         uint16_t stride_shift)
    {
        for (uint32_t i = 0; i < count; ++i) {
            uint64_t buf = alloc(uint64_t(strides) << stride_shift,
                                 1 << stride_shift);
            rq.buffers.push_back(buf);
            RxDesc d;
            d.addr = buf;
            d.byte_count = uint32_t(strides) << stride_shift;
            d.stride_count = strides;
            d.stride_shift = stride_shift;
            uint8_t enc[kRxDescStride];
            d.encode(enc);
            uint64_t slot = rq.pi % rq.entries;
            std::memcpy(hostmem.raw(rq.ring + slot * kRxDescStride,
                                    kRxDescStride),
                        enc, kRxDescStride);
            rq.pi++;
        }
        ring_rq_doorbell(rq);
    }

    void ring_rq_doorbell(Rq& rq)
    {
        std::vector<uint8_t> db(4);
        store_le32(db.data(), rq.pi);
        fabric.write(host_port,
                     bar_base + NicDevice::kRqDbBase + rq.rqn * 8,
                     std::move(db));
    }

    /** Queue one TX frame: copy payload, write WQE, ring doorbell. */
    void post_tx(Sq& sq, const std::vector<uint8_t>& frame,
                 bool signaled = true, uint32_t flow_tag = 0,
                 uint32_t next_table = 0, uint32_t msg_id = 0)
    {
        uint64_t buf = alloc(frame.size() ? frame.size() : 1);
        if (!frame.empty())
            std::memcpy(hostmem.raw(buf, frame.size()), frame.data(),
                        frame.size());
        Wqe wqe;
        wqe.opcode = WqeOpcode::EthSend;
        wqe.signaled = signaled;
        wqe.wqe_index = uint16_t(sq.pi);
        wqe.addr = buf;
        wqe.byte_count = uint32_t(frame.size());
        wqe.flow_tag = flow_tag;
        wqe.next_table = next_table;
        wqe.msg_id = msg_id;
        uint8_t enc[kWqeStride];
        wqe.encode(enc);
        uint64_t slot = sq.pi % sq.entries;
        std::memcpy(hostmem.raw(sq.ring + slot * kWqeStride, kWqeStride),
                    enc, kWqeStride);
        sq.pi++;
        ring_sq_doorbell(sq);
    }

    void ring_sq_doorbell(Sq& sq)
    {
        std::vector<uint8_t> db(4);
        store_le32(db.data(), sq.pi);
        fabric.write(host_port,
                     bar_base + NicDevice::kSqDbBase + sq.sqn * 8,
                     std::move(db));
    }
};

/** Whole-testbed fixture: fabric + host memory + one or two NICs. */
struct Testbed
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint hostmem{"host", 64 << 20};
    pcie::PortId host_port;
    std::unique_ptr<NicHarness> a;
    std::unique_ptr<NicHarness> b; ///< only with two_nics = true
    std::unique_ptr<EthernetLink> link;

    explicit Testbed(bool two_nics = false, NicConfig cfg = {})
    {
        host_port =
            fabric.add_port("host.pcie", 50.0, sim::nanoseconds(150));
        fabric.attach(host_port, &hostmem, kHostMemBase, 64 << 20);
        a = std::make_unique<NicHarness>(eq, fabric, hostmem, host_port,
                                         kNicBarBase, "nicA", cfg,
                                         0x1000);
        if (two_nics) {
            b = std::make_unique<NicHarness>(eq, fabric, hostmem,
                                             host_port, kNic2BarBase,
                                             "nicB", cfg, 0x0100'0000);
            link = std::make_unique<EthernetLink>(
                eq, a->nic->uplink(), b->nic->uplink(), kPortGbps,
                kWireLatency);
        }
    }
};

} // namespace fld::nic::testing

#endif // FLD_TESTS_NIC_TEST_FIXTURE_H
