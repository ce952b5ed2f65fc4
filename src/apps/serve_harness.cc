#include "apps/serve_harness.h"

#include <chrono>
#include <ostream>

#include "net/headers.h"
#include "util/strings.h"

namespace fld::apps {

namespace {

constexpr uint32_t kServerIp = net::ipv4_addr(10, 0, 0, 1);
constexpr uint32_t kClientIp = net::ipv4_addr(10, 0, 0, 2);
constexpr uint32_t kSlotBytes = 2048;   ///< both stacks' ring slots
constexpr uint32_t kFldRxBuffers = 16;  ///< FLD-E queue receive buffers

uint64_t
nic_drops(const nic::NicStats& st)
{
    return st.drops_no_buffer + st.drops_rule + st.drops_meter +
           st.drops_no_rule;
}

driver::CpuDriverConfig
one_queue_cfg()
{
    driver::CpuDriverConfig cfg;
    cfg.num_queues = 1;
    // Poll-mode endpoints with deep rings: connection storms (10k
    // handshakes in flight) queue instead of tripping the kernel-ish
    // 20 us overload bound, which would shed SYN-ACKs and melt into a
    // retransmit storm.
    cfg.max_app_backlog = sim::microseconds(500);
    return cfg;
}

/** True when the frame belongs to the targeted client port's flow. */
bool
frame_matches_port(const net::Packet& pkt, uint16_t port)
{
    net::ParsedPacket pp = net::parse(pkt);
    return pp.tcp && (pp.tcp->sport == port || pp.tcp->dport == port);
}

/** Remote testbed whose client node is a DPDK-style generator on
 *  isolated cores (same calibration the echo scenarios use): ~20 ns
 *  per packet and negligible jitter, so the server side is what's
 *  under test. */
TestbedConfig
client_calibrated(TestbedConfig tb)
{
    tb.remote = true;
    tb.client_host.jitter_prob = 0.0005;
    tb.client_host.jitter_min = sim::microseconds(1);
    tb.client_host.jitter_mean_extra = sim::nanoseconds(500);
    tb.client_host.rx_packet_cost = sim::nanoseconds(20);
    tb.client_host.tx_packet_cost = sim::nanoseconds(20);
    return tb;
}

/** Steer @p vport's traffic to queue 0 of @p drv and hang @p fp on
 *  that queue, both directions. */
void
attach(nic::NicDevice& nic, nic::VportId vport, driver::CpuDriver& drv,
       driver::FastPath& fp)
{
    nic.set_vport_default_tir(vport, nic.create_tir({{drv.rqn(0)}}));
    fp.set_tx([&drv](net::Packet&& f) { return drv.send(0, std::move(f)); });
    drv.set_rx_handler(
        [&fp](uint32_t, net::Packet&& f) { fp.on_rx(std::move(f)); });
}

/**
 * AFU bridging FLD's AXI stream into a FastPath TCP stack — the
 * paper's "accelerator with its own network driver" shape: the full
 * transport endpoint lives on the FPGA side of the PCIe boundary.
 *
 * RX: stream packets become raw frames into FastPath::on_rx after the
 * unit bank's service time. TX: the stack's egress hook wraps frames
 * in stream packets carrying the steering metadata (context/resume
 * table) captured from the first received packet; send() returning
 * false (FLD out of credits) propagates as driver backpressure, which
 * the stack absorbs with its retry backlog.
 */
class HostStackAfu : public accel::Accelerator
{
  public:
    HostStackAfu(sim::EventQueue& eq, core::FlexDriver& fld,
                 driver::FastPath& fp)
        : Accelerator("hoststack", eq, fld, unit_model()), fp_(fp)
    {
        fp_.set_tx([this](net::Packet&& f) { return transmit(f); });
    }

  protected:
    void process(core::StreamPacket&& pkt) override
    {
        if (!meta_valid_) {
            // All frames of this stack arrive on one FLD-E queue; its
            // steering metadata is the template for everything we emit.
            meta_ = pkt.meta;
            meta_valid_ = true;
        }
        net::Packet frame(std::move(pkt.data));
        frame.meta.l3_csum_ok = pkt.meta.l3_csum_ok;
        frame.meta.l4_csum_ok = pkt.meta.l4_csum_ok;
        frame.meta.corr = pkt.meta.corr;
        fp_.on_rx(std::move(frame));
    }

  private:
    /** Transport hot path on FPGA: fast, deep queues (the stack, not
     *  the AFU bank, is the flow-control point). */
    static accel::UnitModel unit_model()
    {
        accel::UnitModel m;
        m.units = 2;
        m.setup_time = sim::nanoseconds(40);
        m.unit_gbps = 100.0;
        m.queue_depth = 4096;
        return m;
    }

    bool transmit(net::Packet& frame)
    {
        core::StreamPacket out;
        // Copy, don't move: when FLD refuses (no credits) the stack
        // keeps the frame in its retry backlog, so it must stay intact.
        out.data = frame.data;
        out.meta.context_id = meta_.context_id;
        out.meta.next_table = meta_.next_table;
        if (auto* tr = sim::Tracer::active())
            out.meta.corr = tr->next_corr();
        return send(0, std::move(out));
    }

    driver::FastPath& fp_;
    core::StreamMeta meta_; ///< steering template from first RX
    bool meta_valid_ = false;
};

} // namespace

// ---------------------------------------------------------------------
// Report frame
// ---------------------------------------------------------------------

void
ServeReport::print_frame(std::ostream& os) const
{
    os << "stacks: client retx=" << client_stats.retransmits
       << " quiesced=" << client_quiesced
       << ", server retx=" << server_stats.retransmits
       << " quiesced=" << server_quiesced << "\n";
    os << "conservation: " << ledger.summary() << "\n";
    os << "faults: " << faults.summary() << "\n";
    os << strfmt("state_hash = %016llx\n", (unsigned long long)state_hash);
    os << "end_time_ps = " << end_time << "\n";
    for (const auto& v : violations)
        os << "violation: " << v << "\n";
    for (const auto& v : trace_violations)
        os << "trace: " << v << "\n";
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

ServeHarness::ServeHarness(const ServeConfig& cfg)
    : trace_(cfg.trace), tb_(client_calibrated(cfg.tb))
{
    if (trace_)
        tracer_.install();

    // ----- client node: CpuDriver + FastPath ---------------------
    client_drv_ = std::make_unique<driver::CpuDriver>(
        "client.app", tb_.client_side(32 << 20), tb_.client_app_vport,
        one_queue_cfg());
    tb_.install_client_forwarding();
    client_fp_ = std::make_unique<driver::FastPath>(
        tb_.eq, driver::FastPathConfig{.mac = kClientMac, .ip = kClientIp,
                                       .conn = cfg.conn,
                                       .slot_bytes = kSlotBytes});
    attach(*tb_.client_nic, tb_.client_app_vport, *client_drv_,
           *client_fp_);

    // ----- server node: FLD-driven or CPU-driven stack -----------
    server_fp_ = std::make_unique<driver::FastPath>(
        tb_.eq, driver::FastPathConfig{.mac = kServerMac, .ip = kServerIp,
                                       .conn = cfg.conn,
                                       .slot_bytes = kSlotBytes});
    if (cfg.mode == FastPathMode::Fld) {
        auto q0 =
            tb_.rt->create_eth_queue(tb_.fld_vport, 0, kFldRxBuffers);
        afu_ = std::make_unique<HostStackAfu>(tb_.eq, *tb_.fld,
                                              *server_fp_);
        if (tb_.fault_plan)
            afu_->set_fault_plan(tb_.fault_plan.get(),
                                 tb_.cfg.accel_faults);
        nic::FlowMatch from_wire;
        from_wire.in_vport = nic::kUplinkVport;
        tb_.server_nic->add_rule(0, 0, from_wire,
                                 {nic::fwd_queue(q0.rqn)});
        tb_.route_vport_to_uplink(*tb_.server_nic, tb_.fld_vport);
    } else {
        server_drv_ = std::make_unique<driver::CpuDriver>(
            "server.app", tb_.server_side(32 << 20), tb_.server_app_vport,
            one_queue_cfg());
        attach(*tb_.server_nic, tb_.server_app_vport, *server_drv_,
               *server_fp_);
        tb_.route_uplink_to_vport(*tb_.server_nic, tb_.server_app_vport);
        tb_.route_vport_to_uplink(*tb_.server_nic, tb_.server_app_vport);
    }

    if (cfg.preseed_arp) {
        client_fp_->add_arp_entry(kServerIp, kServerMac);
        server_fp_->add_arp_entry(kClientIp, kClientMac);
    }
    if (cfg.fault_target_port && tb_.wire)
        tb_.wire->set_fault_filter(
            [port = cfg.fault_target_port](const net::Packet& p) {
                return frame_matches_port(p, port);
            });
}

void
ServeHarness::run(const std::function<void()>& start)
{
    tb_.eq.run(); // settle descriptor prefetch before traffic
    events0_ = tb_.eq.executed_total();
    auto wall0 = std::chrono::steady_clock::now();
    start();
    tb_.eq.run();
    run_wall_sec_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
    if (trace_)
        tracer_.uninstall();
}

void
ServeHarness::finish(ServeReport& r, bool server_app_idle)
{
    r.end_time = tb_.eq.now();
    r.events = tb_.eq.executed_total() - events0_;
    r.run_wall_sec = run_wall_sec_;
    r.client_stats = client_fp_->stats();
    r.server_stats = server_fp_->stats();
    r.client_quiesced = client_fp_->quiesced();
    r.server_quiesced = server_fp_->quiesced();

    // Descriptor-leak oracle: both stacks and the server app drained.
    if (!r.client_quiesced)
        r.violations.push_back("client stack not quiesced");
    if (!r.server_quiesced)
        r.violations.push_back("server stack not quiesced");
    if (!server_app_idle)
        r.violations.push_back("server app not idle");

    // Frame-conservation ledger.
    if (tb_.fault_plan)
        r.faults = tb_.fault_plan->counters();
    r.ledger.tx = r.client_stats.frames_tx + r.server_stats.frames_tx;
    r.ledger.rx = r.client_stats.frames_rx + r.server_stats.frames_rx;
    r.ledger.duplicates = r.faults.wire_duplicates;
    r.ledger.accounted_losses =
        r.faults.wire_drops + r.faults.wire_corruptions +
        nic_drops(tb_.server_nic->stats()) +
        nic_drops(tb_.client_nic->stats()) +
        client_drv_->stats().rx_overload_dropped;
    if (afu_)
        r.ledger.accounted_losses += afu_->stats().dropped_overload +
                                     afu_->stats().dropped_invalid;
    if (server_drv_)
        r.ledger.accounted_losses +=
            server_drv_->stats().rx_overload_dropped;
    if (std::string lv = r.ledger.check(); !lv.empty())
        r.violations.push_back("conservation: " + lv);

    if (trace_)
        r.trace_violations = sim::TraceChecker{}.check(tracer_.events());
    r.ok = r.violations.empty() && r.trace_violations.empty();
}

} // namespace fld::apps
