#include "apps/fastpath_harness.h"

#include <chrono>
#include <sstream>

#include "net/headers.h"
#include "sim/fuzz.h" // fnv1a64
#include "sim/trace.h"
#include "util/strings.h"

namespace fld::apps {

namespace {

constexpr uint32_t kServerIp = net::ipv4_addr(10, 0, 0, 1);
constexpr uint32_t kClientIp = net::ipv4_addr(10, 0, 0, 2);

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
    if (!pp.tcp)
        return false;
    return pp.tcp->sport == port || pp.tcp->dport == port;
}

} // namespace

// ---------------------------------------------------------------------
// HostStackAfu
// ---------------------------------------------------------------------

HostStackAfu::HostStackAfu(sim::EventQueue& eq, core::FlexDriver& fld,
                           driver::FastPath& fp, uint32_t tx_queue,
                           accel::UnitModel model)
    : Accelerator("hoststack", eq, fld, model), fp_(fp),
      tx_queue_(tx_queue)
{
    fp_.set_tx([this](net::Packet&& f) { return transmit(f); });
}

void
HostStackAfu::process(core::StreamPacket&& pkt)
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

bool
HostStackAfu::transmit(net::Packet& frame)
{
    core::StreamPacket out;
    // Copy, don't move: when FLD refuses (no credits) the stack keeps
    // the frame in its retry backlog, so it must stay intact here.
    out.data = frame.data;
    out.meta.context_id = meta_.context_id;
    out.meta.next_table = meta_.next_table;
    if (auto* tr = sim::Tracer::active())
        out.meta.corr = tr->next_corr();
    return send(tx_queue_, std::move(out));
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

std::string
FastPathReport::summary() const
{
    std::ostringstream os;
    os << (ok ? "OK" : "FAIL") << " opened=" << opened
       << " accepted=" << accepted << " closed=" << closed
       << " resets=" << resets << "\n";
    os << "client: bytes=" << client_bytes
       << " frames_tx=" << client_stats.frames_tx
       << " frames_rx=" << client_stats.frames_rx
       << " retx=" << client_stats.retransmits
       << " quiesced=" << client_quiesced << "\n";
    os << "server: bytes=" << server_bytes
       << " frames_tx=" << server_stats.frames_tx
       << " frames_rx=" << server_stats.frames_rx
       << " retx=" << server_stats.retransmits
       << " quiesced=" << server_quiesced << "\n";
    os << "conservation: " << ledger.summary() << "\n";
    os << "faults: " << faults.summary() << "\n";
    os << "flow_hash = "
       << strfmt("%016llx", (unsigned long long)flow_hash) << "\n";
    os << "state_hash = "
       << strfmt("%016llx", (unsigned long long)state_hash) << "\n";
    os << "end_time_ps = " << end_time << "\n";
    for (const auto& v : violations)
        os << "violation: " << v << "\n";
    for (const auto& v : trace_violations)
        os << "trace: " << v << "\n";
    return os.str();
}

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

FastPathReport
run_fastpath_scenario(const FastPathHarnessConfig& cfg)
{
    TestbedConfig tb_cfg = cfg.tb;
    tb_cfg.remote = true;
    // The measuring client is a DPDK-style generator on isolated
    // cores (same calibration the echo scenarios use): ~20 ns/packet
    // and negligible jitter, so the server side is what's under test.
    tb_cfg.client_host.jitter_prob = 0.0005;
    tb_cfg.client_host.jitter_min = sim::microseconds(1);
    tb_cfg.client_host.jitter_mean_extra = sim::nanoseconds(500);
    tb_cfg.client_host.rx_packet_cost = sim::nanoseconds(20);
    tb_cfg.client_host.tx_packet_cost = sim::nanoseconds(20);
    Testbed tb(tb_cfg);

    sim::Tracer tracer;
    if (cfg.trace)
        tracer.install();

    // ----- client node: CpuDriver + FastPath + AppEmu ------------
    driver::CpuDriver client_drv(
        "client.app", tb.eq, tb.fabric, tb.client_host_port,
        tb.client_mem, tb.client_arena(32 << 20), 32 << 20,
        *tb.client_nic, Testbed::kClientNicBar, tb.client_host,
        tb.client_app_vport, one_queue_cfg(), Testbed::kClientMemBase);
    tb.install_client_forwarding();
    uint32_t ctir = tb.client_nic->create_tir({{client_drv.rqn(0)}});
    tb.client_nic->set_vport_default_tir(tb.client_app_vport, ctir);

    driver::FastPathConfig client_fp_cfg;
    client_fp_cfg.mac = kClientMac;
    client_fp_cfg.ip = kClientIp;
    client_fp_cfg.conn = cfg.conn;
    client_fp_cfg.slot_bytes = cfg.slot_bytes;
    driver::FastPath client_fp(tb.eq, client_fp_cfg);
    client_fp.set_tx([&](net::Packet&& f) {
        return client_drv.send(0, std::move(f));
    });
    client_drv.set_rx_handler([&](uint32_t, net::Packet&& f) {
        client_fp.on_rx(std::move(f));
    });

    AppEmuConfig app_cfg = cfg.app;
    app_cfg.remote_ip = kServerIp;
    app_cfg.remote_port = cfg.sink.listen_port;
    AppEmu app(tb.eq, client_fp, app_cfg);

    // ----- server node: FLD-driven or CPU-driven stack -----------
    driver::FastPathConfig server_fp_cfg;
    server_fp_cfg.mac = kServerMac;
    server_fp_cfg.ip = kServerIp;
    server_fp_cfg.conn = cfg.conn;
    server_fp_cfg.slot_bytes = cfg.slot_bytes;
    driver::FastPath server_fp(tb.eq, server_fp_cfg);

    std::unique_ptr<HostStackAfu> afu;
    std::unique_ptr<driver::CpuDriver> server_drv;
    if (cfg.mode == FastPathMode::Fld) {
        auto q0 = tb.rt->create_eth_queue(tb.fld_vport, 0,
                                          cfg.fld_rx_buffers);
        afu = std::make_unique<HostStackAfu>(tb.eq, *tb.fld,
                                             server_fp, 0);
        if (tb.fault_plan)
            afu->set_fault_plan(tb.fault_plan.get(),
                                tb.cfg.accel_faults);
        nic::FlowMatch from_wire;
        from_wire.in_vport = nic::kUplinkVport;
        tb.server_nic->add_rule(0, 0, from_wire,
                                {nic::fwd_queue(q0.rqn)});
        tb.route_vport_to_uplink(*tb.server_nic, tb.fld_vport);
    } else {
        server_drv = std::make_unique<driver::CpuDriver>(
            "server.app", tb.eq, tb.fabric, tb.server_host_port,
            tb.server_mem, tb.server_arena(32 << 20), 32 << 20,
            *tb.server_nic, Testbed::kServerNicBar, tb.server_host,
            tb.server_app_vport, one_queue_cfg());
        uint32_t stir =
            tb.server_nic->create_tir({{server_drv->rqn(0)}});
        tb.server_nic->set_vport_default_tir(tb.server_app_vport,
                                             stir);
        tb.route_uplink_to_vport(*tb.server_nic, tb.server_app_vport);
        tb.route_vport_to_uplink(*tb.server_nic, tb.server_app_vport);
        server_fp.set_tx([&](net::Packet&& f) {
            return server_drv->send(0, std::move(f));
        });
        server_drv->set_rx_handler([&](uint32_t, net::Packet&& f) {
            server_fp.on_rx(std::move(f));
        });
    }
    SinkApp sink(tb.eq, server_fp, cfg.sink);

    if (cfg.preseed_arp) {
        client_fp.add_arp_entry(kServerIp, kServerMac);
        server_fp.add_arp_entry(kClientIp, kClientMac);
    }
    if (cfg.fault_target_port && tb.wire)
        tb.wire->set_fault_filter(
            [port = cfg.fault_target_port](const net::Packet& p) {
                return frame_matches_port(p, port);
            });

    tb.eq.run(); // settle descriptor prefetch before traffic
    uint64_t traffic_events0 = tb.eq.executed_total();
    auto traffic_wall0 = std::chrono::steady_clock::now();
    app.start();
    tb.eq.run();
    double traffic_wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              traffic_wall0)
                              .count();

    if (cfg.trace)
        tracer.uninstall();

    // ----- fold the run into the report --------------------------
    FastPathReport r;
    r.end_time = tb.eq.now();
    r.events = tb.eq.executed_total() - traffic_events0;
    r.run_wall_sec = traffic_wall;
    r.client_stats = client_fp.stats();
    r.server_stats = server_fp.stats();
    r.opened = r.client_stats.conns_opened;
    r.accepted = sink.accepted();
    r.closed = sink.closed();
    r.resets = sink.resets();
    r.client_quiesced = client_fp.quiesced();
    r.server_quiesced = server_fp.quiesced();

    for (const ConnOutcome& out : app.outcomes()) {
        FlowDigest f;
        f.bytes = out.sent_bytes;
        f.digest = out.sent_digest;
        f.opened = out.opened;
        f.closed = out.closed;
        f.reset = out.reset;
        r.client_flows[out.local_port] = f;
        r.client_bytes += out.sent_bytes;
    }
    for (const auto& [port, flow] : sink.flows()) {
        FlowDigest f;
        f.bytes = flow.bytes;
        f.digest = flow.digest;
        f.opened = true;
        f.closed = flow.closed;
        f.reset = flow.reset;
        r.server_flows[port] = f;
        r.server_bytes += flow.bytes;
    }

    // Lifecycle / exactly-once oracle.
    const bool faulty = tb.fault_plan != nullptr;
    if (!app.done())
        r.violations.push_back("client workload did not finish");
    for (const ConnOutcome& out : app.outcomes()) {
        std::string who = strfmt("conn slot=%u inc=%u port=%u",
                                 out.slot, out.incarnation,
                                 out.local_port);
        if (!out.closed && !out.reset) {
            r.violations.push_back(who + ": no terminal state");
            continue;
        }
        if (!faulty && out.reset) {
            r.violations.push_back(who + ": reset without faults");
            continue;
        }
        if (out.closed && !out.reset) {
            // A clean close means every byte was acked, and go-back-N
            // exactly-once means the server saw the same stream.
            if (!out.opened)
                r.violations.push_back(who + ": closed but not opened");
            if (out.acked_bytes != out.sent_bytes)
                r.violations.push_back(strfmt(
                    "%s: acked %llu != sent %llu", who.c_str(),
                    (unsigned long long)out.acked_bytes,
                    (unsigned long long)out.sent_bytes));
            auto it = r.server_flows.find(out.local_port);
            if (it == r.server_flows.end()) {
                if (out.sent_bytes)
                    r.violations.push_back(who + ": no server flow");
            } else if (it->second.bytes != out.sent_bytes ||
                       it->second.digest != out.sent_digest) {
                r.violations.push_back(strfmt(
                    "%s: server saw %llu bytes digest %016llx, "
                    "client sent %llu bytes digest %016llx",
                    who.c_str(), (unsigned long long)it->second.bytes,
                    (unsigned long long)it->second.digest,
                    (unsigned long long)out.sent_bytes,
                    (unsigned long long)out.sent_digest));
            }
        } else {
            // Reset mid-stream: the server may hold a prefix, never
            // more than was sent (duplicates must not inflate it).
            auto it = r.server_flows.find(out.local_port);
            if (it != r.server_flows.end() &&
                it->second.bytes > out.sent_bytes)
                r.violations.push_back(strfmt(
                    "%s: server delivered %llu > sent %llu",
                    who.c_str(), (unsigned long long)it->second.bytes,
                    (unsigned long long)out.sent_bytes));
        }
    }
    if (!faulty) {
        uint32_t opened_outcomes = 0;
        for (const ConnOutcome& out : app.outcomes())
            opened_outcomes += out.opened;
        if (r.accepted != opened_outcomes)
            r.violations.push_back(strfmt(
                "server accepted %u != client opened %u", r.accepted,
                opened_outcomes));
    }

    // Descriptor-leak oracle: both stacks fully drained.
    if (!r.client_quiesced)
        r.violations.push_back("client stack not quiesced");
    if (!r.server_quiesced)
        r.violations.push_back("server stack not quiesced");

    // Frame-conservation ledger.
    if (tb.fault_plan)
        r.faults = tb.fault_plan->counters();
    r.ledger.tx = r.client_stats.frames_tx + r.server_stats.frames_tx;
    r.ledger.rx = r.client_stats.frames_rx + r.server_stats.frames_rx;
    r.ledger.duplicates = r.faults.wire_duplicates;
    r.ledger.accounted_losses =
        r.faults.wire_drops + r.faults.wire_corruptions +
        nic_drops(tb.server_nic->stats()) +
        nic_drops(tb.client_nic->stats()) +
        client_drv.stats().rx_overload_dropped;
    if (afu)
        r.ledger.accounted_losses += afu->stats().dropped_overload +
                                     afu->stats().dropped_invalid;
    if (server_drv)
        r.ledger.accounted_losses +=
            server_drv->stats().rx_overload_dropped;
    if (std::string lv = r.ledger.check(); !lv.empty())
        r.violations.push_back("conservation: " + lv);

    if (cfg.trace) {
        sim::TraceChecker checker;
        r.trace_violations = checker.check(tracer.events());
    }

    // Flow hash: per-flow digests from both ends, in port order.
    uint64_t h = sim::kFnvBasis;
    for (const auto& [port, f] : r.client_flows) {
        h = sim::fnv1a64_u64(port, h);
        h = sim::fnv1a64_u64(f.bytes, h);
        h = sim::fnv1a64_u64(f.digest, h);
        h = sim::fnv1a64_u64(uint64_t(f.opened) |
                                 uint64_t(f.closed) << 1 |
                                 uint64_t(f.reset) << 2,
                             h);
    }
    for (const auto& [port, f] : r.server_flows) {
        h = sim::fnv1a64_u64(port, h);
        h = sim::fnv1a64_u64(f.bytes, h);
        h = sim::fnv1a64_u64(f.digest, h);
        h = sim::fnv1a64_u64(uint64_t(f.closed) | uint64_t(f.reset) << 1, h);
    }
    r.flow_hash = h;

    // State hash: every observable counter folded in — two runs of
    // the same config must reproduce this bit-for-bit.
    for (const driver::FastPathStats* st :
         {&r.client_stats, &r.server_stats}) {
        h = sim::fnv1a64_u64(st->frames_tx, h);
        h = sim::fnv1a64_u64(st->frames_rx, h);
        h = sim::fnv1a64_u64(st->segments_sent, h);
        h = sim::fnv1a64_u64(st->segments_received, h);
        h = sim::fnv1a64_u64(st->retransmits, h);
        h = sim::fnv1a64_u64(st->pure_acks_sent, h);
        h = sim::fnv1a64_u64(st->dup_segments, h);
        h = sim::fnv1a64_u64(st->ooo_segments, h);
        h = sim::fnv1a64_u64(st->tx_descs, h);
        h = sim::fnv1a64_u64(st->rx_descs, h);
        h = sim::fnv1a64_u64(st->tx_done_descs, h);
        h = sim::fnv1a64_u64(st->rx_ring_stalls, h);
        h = sim::fnv1a64_u64(st->driver_backpressure, h);
    }
    h = sim::fnv1a64_u64(r.opened, h);
    h = sim::fnv1a64_u64(r.accepted, h);
    h = sim::fnv1a64_u64(r.closed, h);
    h = sim::fnv1a64_u64(r.resets, h);
    h = sim::fnv1a64_u64(r.faults.total(), h);
    h = sim::fnv1a64_u64(r.ledger.tx, h);
    h = sim::fnv1a64_u64(r.ledger.rx, h);
    h = sim::fnv1a64_u64(uint64_t(r.end_time), h);
    r.state_hash = h;

    r.ok = r.violations.empty() && r.trace_violations.empty();
    return r;
}

} // namespace fld::apps
