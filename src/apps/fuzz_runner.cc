#include "apps/fuzz_runner.h"

#include <algorithm>
#include <sstream>

#include "apps/fastpath_harness.h"
#include "apps/rpc_harness.h"
#include "nic/pipeline.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/strings.h"

namespace fld::apps {

namespace {

/** Generator send-phase bound; the budgeted packet count is the real
 *  stop condition, this only caps pathological stalls. */
constexpr sim::TimePs kRunDuration = sim::milliseconds(50);

/** Id-derived message payload (shared idiom with the fault tests). */
std::vector<uint8_t>
payload_for(uint32_t id, size_t bytes)
{
    std::vector<uint8_t> p(bytes);
    for (size_t i = 0; i < bytes; ++i)
        p[i] = uint8_t((id * 131u) ^ (i * 7u));
    return p;
}

uint64_t
nic_drops(const nic::NicStats& st)
{
    return st.drops_no_buffer + st.drops_rule + st.drops_meter +
           st.drops_no_rule + st.drops_acl;
}

/**
 * Materialize the scenario's random pipeline program on the echo
 * server's NIC: compile the installed steering rules into the flat
 * program, then splice a behavior-preserving decoration chain in
 * front of them, seeded from pipeline.program_seed.
 *
 * The splice entry (table 0, priority above every scenario rule)
 * catches untagged packets, tags and counts them, and jumps into a
 * chain of decoration tables. Chain entries use masked/ternary keys
 * around the workload's ports, bump counters, retag, optionally apply
 * an identity dst-NAT or a single-backend VIP select (net no-ops that
 * still exercise the rewrite datapath end to end), and always fall
 * through — by entry goto or by the table's miss defaults — until the
 * last table jumps back to table 0, where the now-nonzero tag skips
 * the splice and the original rules deliver. ACL denies sit on a port
 * the workload never uses. Identical programs are installed for the
 * FLD and CPU runs, so the differential oracles judge the compiled
 * program end to end.
 */
void
install_pipeline_decorations(nic::NicDevice& dev,
                             const sim::FuzzScenario& s,
                             const PktGenConfig& g)
{
    using namespace fld::nic;
    Rng rng(s.pipeline.program_seed);
    PipelineConfig cfg = Pipeline::config_from(dev.flows());

    constexpr uint32_t kBaseTable = 200; // clear of scenario tables
    constexpr uint32_t kTagBase = 0x9A0000;
    constexpr uint32_t kCtrBase = 9000;
    constexpr uint32_t kVipPool = 77;
    constexpr uint16_t kAclPort = 7; // never used by the workload
    const uint32_t ntab = std::clamp(s.pipeline.tables, 1u, 4u);
    const uint32_t nent = std::clamp(s.pipeline.entries, 1u, 4u);
    // NAT/VIP decorations match the request direction by destination
    // ip, which on VXLAN scenarios would hit the outer header before
    // decap; keep them to plain scenarios.
    const bool nat_ok = s.pipeline.use_nat && !s.vxlan;
    const bool vip_ok = s.pipeline.use_vip && !s.vxlan;

    PipelineTableConfig* t0 = nullptr;
    for (PipelineTableConfig& t : cfg.tables)
        if (t.id == 0)
            t0 = &t;
    if (!t0) {
        cfg.tables.push_back(PipelineTableConfig{});
        t0 = &cfg.tables.back();
    }
    PipelineEntryConfig splice;
    splice.priority = 1000;
    splice.key.flow_tag = ternary_exact(0); // untagged packets only
    splice.actions = {set_tag(kTagBase), count_action(kCtrBase),
                      goto_table(kBaseTable)};
    t0->entries.push_back(std::move(splice));

    bool vip_used = false;
    for (uint32_t i = 0; i < ntab; ++i) {
        PipelineTableConfig t;
        t.id = kBaseTable + i;
        const uint32_t next = i + 1 < ntab ? kBaseTable + i + 1 : 0;
        t.default_actions = {goto_table(next)};
        for (uint32_t e = 0; e < nent; ++e) {
            PipelineEntryConfig en;
            en.priority = int(rng.range(0, 100));
            switch (rng.uniform(4)) {
            case 0:
                break; // wildcard
            case 1: {
                static const uint32_t kMasks[] = {0xffff, 0xfff0,
                                                  0xff00};
                en.key.dport =
                    ternary_masked(g.dport, kMasks[rng.uniform(3)]);
                break;
            }
            case 2:
                // Covers the whole base_sport..base_sport+63 flow
                // range; echo-direction packets (swapped ports) miss.
                en.key.sport = ternary_masked(g.base_sport, 0xffc0);
                break;
            default:
                en.key.ethertype = ternary_exact(0x0800);
                break;
            }
            en.actions.push_back(
                count_action(kCtrBase + 1 + i * 8 + e));
            if (rng.chance(0.5))
                en.actions.push_back(set_tag(kTagBase + 1 + i * 8 + e));
            if (nat_ok && rng.chance(0.5)) {
                // Identity NAT: pin the key to the request direction,
                // then rewrite to the very same destination.
                en.key.dst_ip = ternary_exact(g.dst_ip);
                if (rng.chance(0.5)) {
                    en.key.dport = ternary_exact(g.dport);
                    en.actions.push_back(nat_dst(g.dst_ip, g.dport));
                } else {
                    en.actions.push_back(nat_dst(g.dst_ip));
                }
            } else if (vip_ok && rng.chance(0.5)) {
                // Single-backend VIP: the pool holds only the real
                // destination, so the select is a net no-op.
                en.key.dst_ip = ternary_exact(g.dst_ip);
                en.actions.push_back(vip_select(kVipPool));
                vip_used = true;
            }
            en.actions.push_back(goto_table(next));
            t.entries.push_back(std::move(en));
        }
        if (s.pipeline.use_acl && rng.chance(0.5)) {
            PipelineEntryConfig deny;
            deny.priority = 500; // above every chain entry
            deny.key.dport = ternary_exact(kAclPort);
            deny.actions = {acl_deny(i)};
            t.entries.push_back(std::move(deny));
        }
        cfg.tables.push_back(std::move(t));
    }
    if (vip_used)
        cfg.pools.push_back(VipPoolConfig{kVipPool, {g.dst_ip}});

    dev.set_pipeline_program(std::move(cfg));
}

void
fill_fault_counters(const Testbed& tb, FuzzRunDigest& d)
{
    if (tb.fault_plan)
        d.faults = tb.fault_plan->counters();
}

/** The serving knobs both app pairs draw from the scenario. */
void
set_serve_knobs(ServeConfig& cfg, const sim::FuzzScenario& s,
                bool fld_mode, bool trace)
{
    cfg.mode = fld_mode ? FastPathMode::Fld : FastPathMode::Cpu;
    cfg.conn.rto =
        sim::microseconds(double(s.conn.rto_us ? s.conn.rto_us : 200));
    cfg.tb.nic.wire_faults = s.faults.wire;
    cfg.tb.tlp.faults = s.faults.pcie;
    cfg.tb.accel_faults = s.faults.accel;
    cfg.tb.fault_seed = s.faults.seed;
    cfg.trace = trace;
}

/** A serving-harness run's digest, filled from the shared frame. */
FuzzRunDigest
serve_digest(const char* label, const ServeReport& r)
{
    FuzzRunDigest d;
    d.label = label;
    // Lost frames gate the differential the same way echo drops do:
    // under loss the two modes legitimately diverge.
    d.drops = r.faults.wire_drops + r.faults.wire_corruptions;
    d.faults = r.faults;
    d.ledger = r.ledger;
    d.violations = r.violations;
    d.trace_violations = r.trace_violations;
    d.end_time = r.end_time;
    return d;
}

} // namespace

std::string
FuzzRunDigest::to_string() const
{
    std::ostringstream os;
    os << "--- run " << label << " ---\n";
    os << "tx = " << tx << "\n";
    os << "rx = " << rx << "\n";
    os << "bad_payload = " << bad_payload << "\n";
    if (duplicate_msgs || missing_msgs)
        os << "duplicate_msgs = " << duplicate_msgs
           << "\nmissing_msgs = " << missing_msgs << "\n";
    os << "drops = " << drops << "\n";
    for (const auto& [flow, digest] : flow_digests)
        os << "flow " << flow << " digest = " << strfmt("%016llx",
                          (unsigned long long)digest)
           << "\n";
    os << "conservation: " << ledger.summary() << "\n";
    os << "faults: " << faults.summary() << "\n";
    if (!violations.empty()) {
        os << "harness_violations = " << violations.size() << "\n";
        for (const std::string& v : violations)
            os << "  " << v << "\n";
    }
    os << "trace_violations = " << trace_violations.size() << "\n";
    os << "trace_hash = "
       << strfmt("%016llx", (unsigned long long)trace_hash) << "\n";
    os << "end_time_ps = " << end_time << "\n";
    return os.str();
}

PktGenConfig
FuzzRunner::gen_config(const sim::FuzzScenario& s) const
{
    PktGenConfig g;
    g.imc_mix = s.workload.imc_mix;
    g.frame_size =
        std::clamp<size_t>(s.workload.bytes, 64, std::max(64u, s.mtu));
    g.flows = std::max(1u, s.workload.flows);
    if (s.workload.window == 0) {
        g.window = 0;
        g.offered_gbps = s.workload.offered_gbps;
    } else {
        g.window = s.workload.window;
        g.offered_gbps = 0.0;
    }
    g.max_packets = s.workload.packets;
    g.pattern_payload = true;
    g.flow_digests = true;
    g.measure_rtt = false;
    g.vxlan = s.vxlan;
    g.vni = s.vni;
    // Same generator seed for both runs of a scenario: the request
    // streams must be identical for the differential comparison.
    g.seed = s.seed ^ 0x9e3779b97f4a7c15ull;
    return g;
}

TestbedConfig
FuzzRunner::tb_config(const sim::FuzzScenario& s) const
{
    TestbedConfig tb;
    tb.nic.cqe_compression = s.cqe_compression;
    tb.nic.cqe_coalesce_window = sim::nanoseconds(double(s.coalesce_ns));
    if (s.fetch_inflight)
        tb.nic.max_fetches_inflight = s.fetch_inflight;
    tb.nic.wire_faults = s.faults.wire;
    tb.tlp.faults = s.faults.pcie;
    tb.accel_faults = s.faults.accel;
    tb.fault_seed = s.faults.seed;
    return tb;
}

EchoOptions
FuzzRunner::echo_options(const sim::FuzzScenario& s) const
{
    EchoOptions opt;
    opt.echo_queues = std::max(1u, s.echo_queues);
    opt.vxlan = s.vxlan;
    if (s.rx_buffers)
        opt.driver_base.rx_buffers = s.rx_buffers;
    if (s.rx_strides)
        opt.driver_base.rx_strides = s.rx_strides;
    if (s.rx_stride_shift)
        opt.driver_base.rx_stride_shift = s.rx_stride_shift;
    if (s.signal_interval)
        opt.driver_base.signal_interval = s.signal_interval;
    opt.driver_base.wqe_by_mmio = s.wqe_by_mmio;
    return opt;
}

FuzzRunDigest
FuzzRunner::run_eth(const sim::FuzzScenario& s, bool fld_path)
{
    FuzzRunDigest d;
    d.label = fld_path ? "fld" : "cpu";

    sim::Tracer tracer;
    if (opt_.check_trace)
        tracer.install(); // before construction: capture setup too

    PktGenConfig g = gen_config(s);
    TestbedConfig tbc = tb_config(s);
    EchoOptions eopt = echo_options(s);
    auto drive = [&](Testbed& tb, PacketGen& gen,
                     driver::CpuDriver& gen_driver) {
        // Pipeline dimension: the server gets the random decoration
        // chain spliced in front of its rules.
        if (s.pipeline.enabled)
            install_pipeline_decorations(*tb.server_nic, s, g);
        if (s.shaper_gbps > 0)
            tb.client_nic->set_sq_rate(gen_driver.sqn(0),
                                       s.shaper_gbps);
        gen.start(0, kRunDuration);
        tb.eq.run();

        d.tx = gen.tx_count();
        d.rx = gen.rx_count();
        d.bad_payload = gen.bad_payload();
        d.flow_digests = gen.flow_digests();
        d.end_time = tb.eq.now();
        fill_fault_counters(tb, d);
    };

    uint64_t shed = 0; // load shed outside the NIC drop counters
    if (fld_path) {
        auto s2 = make_fld_echo(true, g, tbc, eopt);
        drive(*s2->tb, *s2->gen, *s2->gen_driver);
        d.drops = nic_drops(s2->tb->server_nic->stats()) +
                  nic_drops(s2->tb->client_nic->stats());
        shed = s2->gen_driver->stats().rx_overload_dropped +
               s2->echo->stats().dropped_overload +
               s2->echo->stats().dropped_invalid +
               s2->echo->stats().tx_failed;
    } else {
        auto s2 = make_cpu_echo(true, g, tbc, eopt);
        drive(*s2->tb, *s2->gen, *s2->gen_driver);
        d.drops = nic_drops(s2->tb->server_nic->stats()) +
                  nic_drops(s2->tb->client_nic->stats());
        shed = s2->gen_driver->stats().rx_overload_dropped +
               s2->echo_driver->stats().rx_overload_dropped +
               s2->echo_driver->stats().tx_backpressured;
    }
    d.drops += shed;

    // Conservation from the generator's perspective: a request and its
    // echo each cross the datapath, so any one of the named drop
    // counters (or a wire fault) accounts for one missing echo.
    d.ledger.tx = d.tx;
    d.ledger.rx = d.rx;
    d.ledger.accounted_losses =
        d.faults.wire_drops + d.faults.wire_corruptions + d.drops;
    d.ledger.duplicates = d.faults.wire_duplicates;

    if (opt_.check_trace) {
        tracer.uninstall();
        sim::TraceChecker checker;
        d.trace_violations = checker.check(tracer.events());
        d.trace_hash = sim::fnv1a64_str(tracer.digest());
    }
    return d;
}

FuzzRunDigest
FuzzRunner::run_rdma(const sim::FuzzScenario& s)
{
    FuzzRunDigest d;
    d.label = "rdma";

    sim::Tracer tracer;
    if (opt_.check_trace)
        tracer.install();

    auto s2 = make_fldr_echo(true, tb_config(s));
    Testbed& tb = *s2->tb;

    const uint32_t total = s.workload.packets;
    const size_t bytes = std::max<size_t>(16, s.workload.bytes);
    const uint32_t window = std::max(1u, s.workload.window);

    std::map<uint32_t, uint32_t> copies;
    uint32_t next = 1;
    auto post_next = [&] {
        if (next <= total &&
            s2->client->post_send(payload_for(next, bytes), next))
            ++next;
    };
    s2->client->set_msg_handler(
        [&](uint32_t id, std::vector<uint8_t>&& msg) {
            copies[id]++;
            if (msg != payload_for(id, bytes))
                d.bad_payload++;
            post_next();
        });
    for (uint32_t i = 0; i < window && i < total; ++i)
        post_next();
    tb.eq.run();

    d.tx = s2->client->messages_sent();
    d.rx = s2->client->messages_received();
    d.end_time = tb.eq.now();
    fill_fault_counters(tb, d);
    for (uint32_t id = 1; id <= total; ++id) {
        auto it = copies.find(id);
        if (it == copies.end())
            d.missing_msgs++;
        else if (it->second > 1)
            d.duplicate_msgs += it->second - 1;
    }
    d.drops = nic_drops(tb.server_nic->stats()) +
              nic_drops(tb.client_nic->stats());

    // The RC transport owes exactly-once delivery regardless of wire
    // faults, so the ledger demands the exact identity: rx == tx.
    d.ledger.tx = d.tx;
    d.ledger.rx = d.rx;

    if (opt_.check_trace) {
        tracer.uninstall();
        sim::TraceChecker checker;
        d.trace_violations = checker.check(tracer.events());
        d.trace_hash = sim::fnv1a64_str(tracer.digest());
    }
    return d;
}

FuzzRunDigest
FuzzRunner::run_conn(const sim::FuzzScenario& s, bool fld_mode)
{
    FastPathHarnessConfig cfg;
    set_serve_knobs(cfg, s, fld_mode, opt_.check_trace);
    cfg.app.connections = std::max(1u, s.conn.connections);
    cfg.app.requests_per_conn = std::max(1u, s.conn.requests);
    cfg.app.request_bytes = std::max(1u, s.conn.request_bytes);
    cfg.app.closed_loop = s.conn.closed_loop;
    cfg.app.churn_cycles = s.conn.churn_cycles;
    // Rings sized so the slowest drawn shape (48 conns sharing one
    // app) backpressures through AppEmu's retry queue, not deadlock.
    cfg.app.tx_ring_entries = 128;
    cfg.app.rx_ring_entries = 512;
    cfg.sink.rx_ring_entries = 512;
    cfg.fault_target_port = s.conn.fault_target_port;

    FastPathReport r = run_fastpath_scenario(cfg);
    FuzzRunDigest d = serve_digest(fld_mode ? "conn-fld" : "conn-cpu", r);
    d.tx = r.client_bytes;
    d.rx = r.server_bytes;
    for (const auto& [port, fd] : r.server_flows)
        d.flow_digests[port] = fd.digest;
    return d;
}

FuzzRunDigest
FuzzRunner::run_rpc(const sim::FuzzScenario& s, bool fld_mode)
{
    RpcHarnessConfig cfg;
    set_serve_knobs(cfg, s, fld_mode, opt_.check_trace);
    cfg.client.connections = std::max(1u, s.rpc.connections);
    cfg.client.requests_per_conn = std::max(1u, s.rpc.requests);
    cfg.client.payload_min = std::max(1u, s.rpc.payload_min);
    cfg.client.payload_max =
        std::max(cfg.client.payload_min, s.rpc.payload_max);
    cfg.client.methods_mask = s.rpc.methods_mask ? s.rpc.methods_mask
                                                 : 0x1;
    cfg.client.think_mean =
        sim::microseconds(double(s.rpc.think_us));
    cfg.client.tx_chunk_bytes = s.rpc.chunk_bytes;
    // Same client seed for both runs: the request streams must be
    // identical for the differential comparison.
    cfg.client.seed = s.seed ^ 0xa5a5a5a5deadbeefull;
    cfg.server.service.workers = std::max(1u, s.rpc.workers);
    // The fault-concentration port is drawn for the AppEmu range
    // (20000+); remap it onto the RPC client range (base_port 21000)
    // keeping the targeted/untargeted split. Deterministic per seed.
    cfg.fault_target_port = s.conn.fault_target_port
        ? uint16_t(21000 + (s.conn.fault_target_port - 20000) %
                               cfg.client.connections)
        : 0;

    RpcReport r = run_rpc_scenario(cfg);
    FuzzRunDigest d = serve_digest(fld_mode ? "rpc-fld" : "rpc-cpu", r);
    d.tx = r.client_app.requests_sent;
    d.rx = r.client_app.responses;
    // Fold the per-request response digests per connection (the high
    // half of a request_id is the client port) so the existing
    // per-flow differential machinery diffs them FLD vs CPU.
    for (const auto& [id, digest] : r.digests) {
        uint64_t& h = d.flow_digests[uint32_t(id >> 32)];
        if (h == 0)
            h = sim::kFnvBasis;
        h = sim::fnv1a64_u64(digest, sim::fnv1a64_u64(id, h));
    }
    return d;
}

FuzzVerdict
FuzzRunner::run(const sim::FuzzScenario& scenario)
{
    FuzzVerdict v;
    std::vector<FuzzRunDigest> runs;

    if (scenario.workload.mode == sim::FuzzMode::RdmaEcho) {
        runs.push_back(run_rdma(scenario));
    } else if (scenario.workload.mode == sim::FuzzMode::ConnServe) {
        runs.push_back(run_conn(scenario, /*fld_mode=*/true));
        runs.push_back(run_conn(scenario, /*fld_mode=*/false));
    } else if (scenario.workload.mode == sim::FuzzMode::RpcServe) {
        runs.push_back(run_rpc(scenario, /*fld_mode=*/true));
        runs.push_back(run_rpc(scenario, /*fld_mode=*/false));
    } else {
        runs.push_back(run_eth(scenario, /*fld_path=*/true));
        runs.push_back(run_eth(scenario, /*fld_path=*/false));
    }

    auto fail = [&](std::string why) {
        v.ok = false;
        v.violations.push_back(std::move(why));
    };

    for (const FuzzRunDigest& d : runs) {
        // Payload integrity holds unconditionally: corrupted frames
        // are FCS-dropped on the wire, never delivered damaged.
        if (d.bad_payload)
            fail(strfmt("[%s] %llu deliveries with corrupted payload",
                        d.label.c_str(),
                        (unsigned long long)d.bad_payload));
        for (const std::string& h : d.violations)
            fail(strfmt("[%s] %s", d.label.c_str(), h.c_str()));
        for (const std::string& t : d.trace_violations)
            fail(strfmt("[%s] trace: %s", d.label.c_str(), t.c_str()));
        std::string c = d.ledger.check();
        if (!c.empty())
            fail(strfmt("[%s] %s", d.label.c_str(), c.c_str()));
        if (d.duplicate_msgs)
            fail(strfmt("[%s] %llu duplicate message deliveries",
                        d.label.c_str(),
                        (unsigned long long)d.duplicate_msgs));
        if (d.missing_msgs)
            fail(strfmt("[%s] %llu messages never delivered",
                        d.label.c_str(),
                        (unsigned long long)d.missing_msgs));
    }

    // Differential equivalence, judged only when timing-dependent load
    // shedding cannot legitimately desynchronize the two runs.
    if (runs.size() == 2) {
        const FuzzRunDigest& fld = runs[0];
        const FuzzRunDigest& cpu = runs[1];
        bool clean = !scenario.has_faults() && fld.drops == 0 &&
                     cpu.drops == 0;
        if (clean) {
            if (fld.tx != cpu.tx)
                fail(strfmt("differential: tx mismatch fld=%llu "
                            "cpu=%llu",
                            (unsigned long long)fld.tx,
                            (unsigned long long)cpu.tx));
            if (fld.rx != cpu.rx)
                fail(strfmt("differential: rx mismatch fld=%llu "
                            "cpu=%llu",
                            (unsigned long long)fld.rx,
                            (unsigned long long)cpu.rx));
            if (fld.rx != fld.tx)
                fail(strfmt("fault-free %s run lost deliveries: "
                            "tx=%llu rx=%llu",
                            fld.label.c_str(),
                            (unsigned long long)fld.tx,
                            (unsigned long long)fld.rx));
            if (fld.flow_digests != cpu.flow_digests)
                fail("differential: per-flow delivered payload streams "
                     "differ between FLD and CPU runs");
        }
    }

    std::ostringstream os;
    os << "=== scenario ===\n"
       << scenario.to_string() << "# " << scenario.summary() << "\n";
    for (const FuzzRunDigest& d : runs)
        os << d.to_string();
    os << "--- verdict ---\n";
    if (v.ok) {
        os << "ok\n";
    } else {
        for (const std::string& why : v.violations)
            os << "violation: " << why << "\n";
    }
    v.transcript = os.str();
    v.transcript_hash = sim::fnv1a64_str(v.transcript);
    v.summary = scenario.summary();
    return v;
}

} // namespace fld::apps
