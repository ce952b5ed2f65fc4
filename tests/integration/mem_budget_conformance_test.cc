/**
 * @file
 * SRAM-budget conformance: the bytes the simulated structures actually
 * instantiate must match the analytical memory model.
 *
 * Part A reconciles the flow directory against
 * model::flow_directory_memory at every size point of bench_paper's
 * flow_scale row (1k / 10k / 100k / 1M flows).
 *
 * Part B instantiates a full FlexDriver at Table 3 operating points
 * (25 / 50 / 100 Gbps with the paper's lifetimes and 512 queues),
 * mapping the model's derived quantities onto FldConfig the way the
 * control plane would, and requires MemBudget::total() to track
 * model::fld_memory. The known modeling deltas (the model prices
 * cuckoo slots at 31 bits where the simulator packs 4 B words; the
 * virtual-window translation rounds to power-of-two chunks) stay
 * inside 2% of the total.
 *
 * Finally: the paper's configuration — prototype FldConfig plus a
 * 100k-flow directory — still fits the XCKU15P's 10.05 MiB.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "fld/flexdriver.h"
#include "fld/flow_directory.h"
#include "fld/mem_budget.h"
#include "model/memory_model.h"
#include "pcie/fabric.h"
#include "sim/event_queue.h"
#include "util/bitops.h"

namespace fld {
namespace {

// --------------------------------------------------------------------
// Part A: flow directory vs flow_directory_memory.
// --------------------------------------------------------------------

TEST(MemBudgetConformance, FlowDirectoryMatchesModelAtEveryScale)
{
    for (uint64_t flows :
         {1024ull, 10240ull, 102400ull, 1048576ull}) {
        core::FlowDirectory dir({.flow_capacity = flows});
        SCOPED_TRACE(testing::Message() << flows << " flows");

        // Category-by-category reconciliation within 5%.
        EXPECT_EQ(dir.reconcile_with_model(), "");

        // The budget registration covers every instantiated byte.
        core::MemBudget budget;
        dir.attach_budget(budget);
        EXPECT_EQ(budget.total(), dir.memory_bytes());

        // And the model total agrees with the registered total.
        model::FlowScaleParams p;
        p.flow_capacity = dir.config().flow_capacity;
        p.shards = dir.config().shards;
        p.shard_capacity = dir.shard_capacity();
        p.tenants = dir.config().tenants;
        p.sketch_width = dir.config().sketch.width;
        p.sketch_depth = dir.config().sketch.depth;
        p.sketch_topk = dir.config().sketch.topk;
        double predicted = model::flow_directory_memory(p).total;
        EXPECT_LE(std::abs(double(budget.total()) - predicted),
                  0.05 * predicted);
    }
}

TEST(MemBudgetConformance, MillionFlowDirectoryIsHonestAboutSram)
{
    // ~36 MiB at 10^6 flows: the packed layout scales linearly and
    // the model predicts it, but it does NOT fit the paper's FPGA —
    // the conformance story is "model matches instantiation", not
    // "everything fits".
    core::FlowDirectory dir({.flow_capacity = 1 << 20});
    core::MemBudget budget;
    dir.attach_budget(budget);
    EXPECT_GT(budget.total(), core::kXcku15pBytes);
    EXPECT_FALSE(budget.fits_on_chip());
    EXPECT_EQ(dir.reconcile_with_model(), "");
}

// --------------------------------------------------------------------
// Part B: FlexDriver vs fld_memory at Table 3 operating points.
// --------------------------------------------------------------------

/** Map the model's derived quantities onto an FldConfig the way the
 *  control plane would provision a driver for that line rate. */
core::FldConfig
fld_config_for(const model::MemoryParams& mp)
{
    model::DerivedParams d = model::derive(mp);
    auto f = [](double n) {
        return uint32_t(round_up_pow2(uint64_t(std::ceil(n))));
    };
    core::FldConfig cfg;
    cfg.num_tx_queues = mp.num_queues;
    cfg.tx_desc_pool = f(d.n_txdesc);
    cfg.tx_ring_entries = cfg.tx_desc_pool;
    cfg.tx_buffer_bytes = uint32_t(2.0 * d.s_txbdp);
    cfg.rx_buffer_bytes = uint32_t(2.0 * d.s_rxbdp);
    // cq storage is cq_entries x 2 CQs x 15 B; the model prices
    // (f(ntx) + f(nrx)) x 15 B, so split the sum across the two CQs.
    cfg.cq_entries = (f(d.n_txdesc) + f(d.n_rxdesc)) / 2;
    // Virtual-window translation: the model anchors to 33 KiB at the
    // example BDP. Give each queue the largest power-of-two chunk
    // count that stays within the modeled table.
    double xlt_model = 33.0 * 1024.0 *
                       (d.s_txbdp / (100.0 * 25.0 * 125.0));
    uint64_t chunks_per_q = uint64_t(xlt_model / (mp.num_queues * 4));
    chunks_per_q = round_up_pow2(chunks_per_q + 1) / 2; // floor pow2
    cfg.tx_vwindow_bytes = uint32_t(chunks_per_q * 256);
    return cfg;
}

TEST(MemBudgetConformance, FldBudgetTracksTable3Model)
{
    for (double gbps : {25.0, 50.0, 100.0}) {
        SCOPED_TRACE(testing::Message() << gbps << " Gbps");
        model::MemoryParams mp;
        mp.bandwidth_gbps = gbps;
        model::MemoryBreakdown predicted = model::fld_memory(mp);

        sim::EventQueue eq;
        pcie::PcieFabric fabric(eq);
        pcie::PortId port =
            fabric.add_port("fld.pcie", 50.0, sim::nanoseconds(150));
        core::FlexDriver fld("fld", eq, fabric, port, 0x8000'0000,
                             0x4000'0000, fld_config_for(mp));

        double actual = double(fld.mem_budget().total());
        double rel = std::abs(actual - predicted.total) /
                     predicted.total;
        EXPECT_LE(rel, 0.02)
            << "instantiated " << actual << " B vs model "
            << predicted.total << " B";
    }
}

TEST(MemBudgetConformance, PaperConfigPlusFlowDirectoryFitsOnChip)
{
    // Prototype defaults (§6) with the flow directory at the 100k
    // point: both live in the same budget and stay under 10.05 MiB.
    sim::EventQueue eq;
    pcie::PcieFabric fabric(eq);
    pcie::PortId port =
        fabric.add_port("fld.pcie", 50.0, sim::nanoseconds(150));
    core::FldConfig cfg;
    cfg.flow_capacity = 102400;
    core::FlexDriver fld("fld", eq, fabric, port, 0x8000'0000,
                         0x4000'0000, cfg);

    const core::MemBudget& b = fld.mem_budget();
    EXPECT_GT(b.of("flow state pool (24 B/flow)"), 0u);
    EXPECT_TRUE(b.fits_on_chip())
        << "paper config + 100k flows uses " << b.total() << " B of "
        << core::kXcku15pBytes;
    ASSERT_NE(fld.flow_directory(), nullptr);
    EXPECT_EQ(fld.flow_directory()->reconcile_with_model(), "");
}

} // namespace
} // namespace fld
