/**
 * @file
 * §9 (Discussion) scaling study: FLD scales to higher rates by
 * instantiating multiple queues/"cores" and letting NIC RSS balance
 * flows across them. This bench echoes small packets through one vs.
 * several FLD-E queues and reports the throughput scaling, plus the
 * §5.2.1 memory headroom at higher rates.
 */
#include "apps/testbed.h"
#include "bench/bench_util.h"
#include "apps/pktgen.h"
#include "driver/cpu_driver.h"
#include "model/memory_model.h"

using namespace fld;
using namespace fld::apps;

namespace {

double
run_with_queues(uint32_t queues)
{
    TestbedConfig tc;
    tc.fld.num_tx_queues = queues;
    tc.fld.tx_vwindow_bytes = 256 * 1024 / queues; // shared SRAM
    // Model a narrower per-core DMA pipeline so the per-queue engine,
    // not the shared fabric, is the first bottleneck — the situation
    // §9's multi-core proposal addresses.
    tc.nic.max_fetches_inflight = 2;
    tc.client_host.rx_packet_cost = sim::nanoseconds(20);
    tc.client_host.tx_packet_cost = sim::nanoseconds(20);
    Testbed tb(tc);

    // One FLD-E queue pair per "core", RSS spreading across them.
    std::vector<runtime::FldRuntime::EthQueue> qs;
    std::vector<uint32_t> rqns;
    for (uint32_t q = 0; q < queues; ++q) {
        qs.push_back(
            tb.rt->create_eth_queue(tb.fld_vport, q, 16 / queues));
        rqns.push_back(qs.back().rqn);
    }

    // Echo accelerator lanes: completion key -> FLD tx queue.
    std::map<uint32_t, uint32_t> lane;
    for (uint32_t q = 0; q < queues; ++q)
        lane[qs[q].rqn] = q;
    tb.fld->set_rx_handler([&tb, lane](core::StreamPacket&& pkt) {
        uint32_t q = lane.count(pkt.meta.queue)
                         ? lane.at(pkt.meta.queue) : 0;
        core::StreamPacket out;
        out.data = std::move(pkt.data);
        tb.fld->tx(q, std::move(out));
    });

    // Steering: RSS over the FLD RQs; FLD egress to the wire.
    uint32_t tir = tb.server_nic->create_tir({rqns});
    nic::FlowMatch from_wire;
    from_wire.in_vport = nic::kUplinkVport;
    tb.server_nic->add_rule(0, 0, from_wire, {nic::fwd_tir(tir)});
    tb.route_vport_to_uplink(*tb.server_nic, tb.fld_vport);

    // Client generator (2 lcores) with many flows for RSS entropy.
    driver::CpuDriverConfig gcfg;
    gcfg.num_queues = 2;
    driver::CpuDriver gen_driver(
        "client.testpmd", tb.client_side(32 << 20), tb.client_app_vport,
        gcfg);
    tb.install_client_forwarding();
    uint32_t ctir = tb.client_nic->create_tir({{gen_driver.rqn(1)}});
    tb.client_nic->set_vport_default_tir(tb.client_app_vport, ctir);

    PktGenConfig g = bench::open_loop_gen(64, bench::kOpenLoopGbps,
                                          /*flows=*/64);
    PacketGen gen(tb.eq, gen_driver, 0, g);
    tb.eq.run();
    gen.start(sim::milliseconds(1), sim::milliseconds(4));
    tb.eq.run();
    return bench::measured_gbps(gen);
}

} // namespace

int
main()
{
    bench::banner("Scaling FLD with multiple queues + RSS",
                  "FlexDriver §9");

    TextTable t;
    t.header({"FLD queues", "64 B echo Gbps", "scaling"});
    double base = 0;
    for (uint32_t queues : {1u, 2u, 4u}) {
        double gbps = run_with_queues(queues);
        if (queues == 1)
            base = gbps;
        t.row({strfmt("%u", queues), format_gbps(gbps),
               strfmt("%.2fx", gbps / base)});
    }
    t.print();
    bench::note("per-queue descriptor pipelines parallelize; the "
                "remaining bound is the shared PCIe link, matching "
                "§9's expectation that fabric speed is the scaling "
                "limit");

    bench::banner("Memory headroom at future rates (§5.2.1)", "§9");
    TextTable m;
    m.header({"line rate", "FLD on-die", "fits XCKU15P"});
    for (double gbps : {100.0, 200.0, 400.0}) {
        model::MemoryParams p;
        p.bandwidth_gbps = gbps;
        p.num_queues = 2048;
        auto fld = model::fld_memory(p);
        m.row({format_gbps(gbps), format_bytes(fld.total),
               fld.total <= double(core::kXcku15pBytes) ? "yes" : "NO"});
    }
    m.print();
    return 0;
}
