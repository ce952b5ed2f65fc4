/**
 * @file
 * bench_paper's extension rows, beyond the paper's evaluation: the
 * flextcp-style host fast path and the RPC tier over it, each served
 * by the FLD and by the CPU driver; the million-flow directory; and a
 * pure-scheduler timer churn.
 *
 * Each row also judges the oracles of its runs: the harness oracles,
 * per-flow or per-request digests equal between the FLD- and
 * CPU-served runs, RPC rerun bit-identity and the flow directory's
 * memory model. A failure says why on stderr and sets Run::failed.
 * Host-time rates are `none` rows of the report and never printed, so
 * stdout is the same on any machine and for any --jobs.
 */
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <functional>

#include "apps/churn_harness.h"
#include "apps/fastpath_harness.h"
#include "apps/rpc_harness.h"
#include "bench/paper.h"
#include "model/memory_model.h"
#include "util/rng.h"

namespace fld::bench::paper {

namespace {

/** Says why on stderr and fails @p run. */
void
fail(Run& run, const std::string& why)
{
    std::fprintf(stderr, "%s\n", why.c_str());
    run.failed = true;
}

const char*
mode_name(apps::FastPathMode mode)
{
    return mode == apps::FastPathMode::Fld ? "fld" : "cpu";
}

// ---------------------------------------------------------- fast path

apps::FastPathHarnessConfig
fastpath_cfg(apps::FastPathMode mode, uint32_t conns)
{
    apps::FastPathHarnessConfig cfg;
    cfg.mode = mode;
    cfg.app.connections = conns;
    cfg.app.requests_per_conn = 2;
    cfg.app.request_bytes = 256;
    // Open storms near the service rate, RTO above the congested RTT
    // (a fixed 200 us RTO under 10k-way concurrency turns queueing
    // delay into spurious go-back-N retransmits).
    cfg.app.open_batch = 64;
    cfg.app.open_interval = sim::microseconds(50);
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.app.tx_ring_entries = 256;
    cfg.app.rx_ring_entries = 1024;
    cfg.sink.rx_ring_entries = 1024;
    return cfg;
}

// ---------------------------------------------------------------- RPC

/** p99 bound the SLO curve is judged against. */
constexpr double kSloP99Us = 1000.0;

struct RpcPoint
{
    uint32_t conns, think_us;
    bool faulty;
};

apps::RpcHarnessConfig
rpc_cfg(apps::FastPathMode mode, const RpcPoint& p)
{
    apps::RpcHarnessConfig cfg;
    cfg.mode = mode;
    cfg.client.connections = p.conns;
    cfg.client.requests_per_conn = p.conns >= 10'000 ? 2 : 4;
    cfg.client.payload_min = 64;
    cfg.client.payload_max = 512;
    cfg.client.methods_mask = 0xf; // echo + zuc + defrag + busy
    cfg.client.think_mean = sim::microseconds(double(p.think_us));
    cfg.client.seed = 42;
    // The fast-path row's pacing and RTO tuning.
    cfg.client.open_batch = 64;
    cfg.client.open_interval = sim::microseconds(50);
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.client.tx_ring_entries = 256;
    cfg.client.rx_ring_entries = 1024;
    cfg.server.tx_ring_entries = 512;
    cfg.server.rx_ring_entries = 1024;
    if (p.faulty) {
        // Heavy enough that the targeted flow is guaranteed to lose
        // frames and retransmit through the sweep.
        cfg.tb.nic.wire_faults.drop_prob = 0.25;
        cfg.tb.nic.wire_faults.duplicate_prob = 0.10;
        cfg.tb.fault_seed = 0x5eed;
        cfg.fault_target_port = 21000 + 7;
    }
    return cfg;
}

// --------------------------------------------------------- flow scale

struct FlowPoint
{
    uint64_t flows; ///< directory capacity
    uint32_t tenants;
    uint32_t flows_per_tenant; ///< target live population / tenants
};

struct FlowResult
{
    size_t live = 0;
    uint64_t resident_bytes = 0;
    double model_bytes = 0;
    double model_delta_pct = 0;
    bool fits_on_chip = false;
    double churn_ops_per_sec = 0; ///< opens+closes per host second
    double record_ops_per_sec = 0; ///< packet records per host second
    double lookup_ns = 0; ///< host ns per find() of a live key
    std::string violation; ///< first failed oracle, empty when none
};

double
elapsed_sec(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

FlowResult
run_flow_point(const FlowPoint& spec)
{
    FlowResult r;
    apps::ChurnHarnessConfig cfg;
    cfg.churn.tenants = spec.tenants;
    cfg.churn.flows_per_tenant = spec.flows_per_tenant;
    cfg.churn.packet_fraction = 0.5; // half churn, half packets
    cfg.churn.seed = 0xf10c + spec.flows;
    cfg.directory.flow_capacity = spec.flows;
    // The exact oracle costs ~64 B/flow of host memory and an O(n)
    // final sweep; keep it on through 100k and trust the (identical)
    // logic plus the stat/budget oracles at the 1M point.
    cfg.shadow_oracle = spec.flows <= 200'000;

    apps::ChurnHarness harness(cfg);
    harness.ramp();
    auto t0 = std::chrono::steady_clock::now();
    harness.step(std::clamp<uint64_t>(spec.flows, 200'000, 2'000'000));
    double churn_sec = elapsed_sec(t0);

    apps::ChurnReport rep = harness.report();
    const core::FlowDirectory& dir = harness.directory();
    r.churn_ops_per_sec = double(rep.opens + rep.closes) / churn_sec;
    r.record_ops_per_sec =
        double(rep.packets + rep.shaped_drops) / churn_sec;

    // Lookup latency over a stride sample of the live set.
    const auto& live = harness.gen().live_flows();
    size_t samples = std::min<size_t>(live.size(), 200'000);
    size_t stride =
        std::max<size_t>(live.size() / std::max<size_t>(samples, 1), 1);
    uint64_t found = 0;
    t0 = std::chrono::steady_clock::now();
    for (size_t i = 0, n = 0; n < samples; i += stride, ++n)
        found += dir.find(live[i % live.size()].key) ? 1 : 0;
    r.lookup_ns = elapsed_sec(t0) * 1e9 / double(samples);

    r.live = rep.final_live;
    r.resident_bytes = dir.memory_bytes();
    model::FlowScaleParams mp;
    mp.flow_capacity = dir.config().flow_capacity;
    mp.shards = dir.config().shards;
    mp.shard_capacity = dir.shard_capacity();
    mp.tenants = dir.config().tenants;
    mp.sketch_width = dir.config().sketch.width;
    mp.sketch_depth = dir.config().sketch.depth;
    mp.sketch_topk = dir.config().sketch.topk;
    r.model_bytes = model::flow_directory_memory(mp).total;
    r.model_delta_pct =
        100.0 * (double(r.resident_bytes) - r.model_bytes) / r.model_bytes;
    r.fits_on_chip = r.resident_bytes <= core::kXcku15pBytes;

    if (!rep.violations.empty())
        r.violation = rep.violations.front();
    else if (found != samples)
        r.violation = "live-key lookup missed";
    else if (std::abs(r.model_delta_pct) > 5.0)
        r.violation = strfmt("model divergence %.2f%%", r.model_delta_pct);
    return r;
}

} // namespace

void
fastpath(Run& run)
{
    banner("Host fast path serving",
           "extension: per-flow TCP, FLD-served vs CPU-served");

    // The same AppEmu open/serve/close workload at each size, FLD- then
    // CPU-served: point i is kConns[i / 2] in kModes[i % 2].
    const uint32_t kConns[] = {1'000, 10'000};
    const apps::FastPathMode kModes[] = {apps::FastPathMode::Fld,
                                         apps::FastPathMode::Cpu};
    auto reps = parallel_rows(4, run.jobs, [&](size_t i) {
        return apps::run_fastpath_scenario(
            fastpath_cfg(kModes[i % 2], kConns[i / 2]));
    });
    for (size_t i = 0; i < reps.size(); ++i) {
        const apps::FastPathReport& rep = reps[i];
        uint32_t conns = kConns[i / 2];
        const char* mode = mode_name(kModes[i % 2]);
        std::string point = strfmt("%s_%u", mode, conns);
        double sim_sec = double(rep.end_time) * 1e-12;
        double conns_per_sec = 0, goodput_gbps = 0, per_conn_mbps = 0;
        if (sim_sec > 0) {
            conns_per_sec = double(rep.closed) / sim_sec;
            goodput_gbps = double(rep.server_bytes) * 8.0 / sim_sec / 1e9;
            per_conn_mbps = goodput_gbps * 1e3 / double(conns);
        }
        note(strfmt("%5u conns (%s): %9.0f conns/s, %6.3f Gbps aggregate,"
                    " %7.3f Mbps/conn, sim %6.2f ms, %" PRIu64 " events",
                    conns, mode, conns_per_sec,
                    goodput_gbps, per_conn_mbps, sim_sec * 1e3, rep.events));
        std::string p = point + ".";
        run.report.real(p + "conns_per_sec", conns_per_sec, "1/s");
        run.report.real(p + "goodput_gbps", goodput_gbps, "Gbps");
        run.report.real(p + "per_conn_mbps", per_conn_mbps, "Mbps");
        run.report.real(p + "sim_ms", sim_sec * 1e3, "ms");
        run.report.hash(p + "flow_hash", rep.flow_hash);
        run.report.count(p + "events", rep.events, "events");
        run.report.count(p + "packets", rep.server_stats.frames_rx,
                         "packets");
        // Header parses per frame either stack received.
        run.report.real(p + "parses_per_frame",
                        double(rep.parses) /
                            double(rep.client_stats.frames_rx +
                                   rep.server_stats.frames_rx),
                        "parses");
        run.report.real(p + "wall_sec", rep.run_wall_sec, "s", Gate::None);
        run.report.real(p + "events_per_sec",
                        double(rep.events) / rep.run_wall_sec, "1/s",
                        Gate::None);

        if (!rep.violations.empty())
            fail(run, "fastpath " + point + ": " + rep.violations.front());
        else if (!rep.ok || rep.closed != conns || rep.resets != 0)
            fail(run, strfmt("fastpath %s: %u/%u connections closed, "
                             "%u resets",
                             point.c_str(), rep.closed, conns, rep.resets));
        if (i % 2 == 0)
            continue;
        bool same = rep.flow_hash == reps[i - 1].flow_hash;
        note(strfmt("%5u conns: per-flow digests %s", conns,
                    same ? "identical (fld == cpu)" : "DIVERGE"));
        if (!same)
            fail(run, strfmt("fastpath %u conns: FLD and CPU per-flow "
                             "digests diverge",
                             conns));
    }
}

void
rpc(Run& run)
{
    banner("RPC application tier SLO",
           "extension: accel-backed RPC over the host fast path, "
           "FLD-served vs CPU-served");

    // The SLO curve at 1k connections (offered load swept by think
    // time), targeted wire loss on one client's flow, and the 10k
    // scale point; each FLD- then CPU-served.
    const RpcPoint kPoints[] = {{1'000, 20, false},
                                {1'000, 5, false},
                                {1'000, 0, false},
                                {1'000, 5, true},
                                {10'000, 20, false}};
    const apps::FastPathMode kModes[] = {apps::FastPathMode::Fld,
                                         apps::FastPathMode::Cpu};
    constexpr size_t kRuns = 2 * std::size(kPoints);
    // One more run repeats run 2 (fld_1000_think5): the same config must
    // be bit-identical.
    auto reps = parallel_rows(kRuns + 1, run.jobs, [&](size_t i) {
        size_t k = i < kRuns ? i : 2;
        return apps::run_rpc_scenario(rpc_cfg(kModes[k % 2], kPoints[k / 2]));
    });
    for (size_t i = 0; i < kRuns; ++i) {
        const apps::RpcReport& rep = reps[i];
        const RpcPoint& pt = kPoints[i / 2];
        const char* mode = mode_name(kModes[i % 2]);
        std::string point = strfmt("%s_%u_think%u%s", mode, pt.conns,
                                   pt.think_us, pt.faulty ? "_faults" : "");
        bool slo_met = rep.p99_us > 0 && rep.p99_us <= kSloP99Us;
        note(strfmt("%5u conns think=%2uus (%s%s): %9.0f req/s, %6.3f Gbps, "
                    "p50 %7.1f p99 %8.1f p99.9 %8.1f us, SLO(p99<=%.0fus) %s",
                    pt.conns, pt.think_us, mode, pt.faulty ? "+faults" : "",
                    rep.req_per_sec, rep.goodput_gbps, rep.p50_us, rep.p99_us,
                    rep.p999_us, kSloP99Us, slo_met ? "met" : "MISSED"));
        std::string p = point + ".";
        run.report.real(p + "req_per_sec", rep.req_per_sec, "1/s");
        run.report.real(p + "goodput_gbps", rep.goodput_gbps, "Gbps");
        run.report.real(p + "p50_us", rep.p50_us, "us");
        run.report.real(p + "p99_us", rep.p99_us, "us");
        run.report.real(p + "p999_us", rep.p999_us, "us");
        run.report.real(p + "mean_us", rep.mean_us, "us");
        run.report.hash(p + "digest_hash", rep.digest_hash);
        run.report.hash(p + "state_hash", rep.state_hash);
        run.report.real(p + "sim_ms", double(rep.end_time) * 1e-12 * 1e3,
                        "ms");
        run.report.real(p + "wall_sec", rep.run_wall_sec, "s", Gate::None);

        if (!rep.ok)
            fail(run, "rpc " + point + ": " +
                          (rep.violations.empty() ? "oracle failed"
                                                  : rep.violations.front()));
        if (i % 2 == 0)
            continue;
        // Per-request digests must be identical across the serving
        // modes whenever no frame was lost (faults gate it: resets
        // legitimately drop requests).
        bool same = pt.faulty || rep.digest_hash == reps[i - 1].digest_hash;
        note(strfmt("%5u conns think=%2uus: per-request digests %s",
                    pt.conns, pt.think_us,
                    pt.faulty ? "not compared (faulty point)"
                    : same    ? "identical (fld == cpu)"
                              : "DIVERGE"));
        if (!same)
            fail(run, strfmt("rpc %u conns think=%uus: FLD and CPU "
                             "per-request digests diverge",
                             pt.conns, pt.think_us));
    }
    uint64_t rerun = reps[kRuns].state_hash;
    bool identical = rerun == reps[2].state_hash;
    note(strfmt("rerun state_hash %016" PRIx64 ": %s", rerun,
                identical ? "bit-identical" : "NON-DETERMINISTIC"));
    if (!identical)
        fail(run, "rpc: a rerun of fld_1000_think5 is not bit-identical");
}

void
flow_scale(Run& run)
{
    banner("Flow-directory scaling", "extension: million-flow control plane");

    // Many-tenant churn through the ChurnHarness oracles, half opens
    // and closes, half packet records.
    const FlowPoint kPoints[] = {
        {1'024, 16, 51},        // ~816 live
        {10'240, 64, 128},      // ~8.2k live
        {102'400, 256, 320},    // ~82k live
        {1'048'576, 256, 3'640} // ~932k live
    };
    auto results = parallel_rows(std::size(kPoints), run.jobs, [&](size_t i) {
        return run_flow_point(kPoints[i]);
    });
    for (size_t i = 0; i < results.size(); ++i) {
        const FlowResult& r = results[i];
        uint64_t flows = kPoints[i].flows;
        note(strfmt("%8" PRIu64 " flows: %7zu live, SRAM %8.2f KiB "
                    "(model %+.2f%%), %s",
                    flows, r.live, double(r.resident_bytes) / 1024.0,
                    r.model_delta_pct,
                    r.fits_on_chip ? "fits XCKU15P" : "exceeds XCKU15P"));
        std::string f = strfmt("flows_%" PRIu64 ".", flows);
        run.report.count(f + "live", r.live, "flows");
        run.report.count(f + "resident_bytes", r.resident_bytes, "B");
        run.report.real(f + "model_bytes", r.model_bytes, "B");
        run.report.real(f + "model_delta_pct", r.model_delta_pct, "%");
        run.report.real(f + "churn_ops_per_sec", r.churn_ops_per_sec, "1/s",
                        Gate::None);
        run.report.real(f + "record_ops_per_sec", r.record_ops_per_sec,
                        "1/s", Gate::None);
        run.report.real(f + "lookup_ns", r.lookup_ns, "ns", Gate::None);
        if (!r.violation.empty())
            fail(run, strfmt("flow_scale %" PRIu64 " flows: %s", flows,
                             r.violation.c_str()));
    }
}

void
timer_churn(Run& run)
{
    banner("Timer churn", "extension: scheduler stress");

    // 100k flow timers re-arm at RTO-like horizons until the
    // millionth firing; the 99,999 timers still pending then fire once
    // more without re-arming, so the run executes 1,099,999 events. No
    // testbed, just schedule/advance churn over a pending set big
    // enough to spread across wheel levels (the million-flow control
    // plane's timer load, distilled).
    constexpr uint32_t kPopulation = 100'000;
    constexpr uint64_t kEvents = 1'000'000;
    sim::EventQueue eq;
    Rng rng(0x7e57);
    uint64_t fired = 0;
    // Mostly short service delays (the 2^14..2^21 ps band real runs
    // live in), a tail of long RTOs.
    std::function<void()> arm = [&] {
        sim::TimePs delay = rng.uniform(100) < 2
                                ? sim::microseconds(50)
                                : sim::TimePs(1) << (14 + rng.uniform(8));
        eq.schedule_in(delay, [&] {
            if (++fired < kEvents)
                arm();
        });
    };
    for (uint32_t i = 0; i < kPopulation; ++i)
        arm();
    EngineSample s = run_sampled(eq);
    note(strfmt("%u timers, %" PRIu64 " events over %.3f ms simulated: "
                "%.1f events per bucket, %" PRIu64 " cascades",
                kPopulation, s.events, sim::to_ms(s.sim_time),
                s.wheel.avg_bucket_occupancy(), s.wheel.cascades));
    engine_rows(run.report, "churn_1M", s);
}

} // namespace fld::bench::paper
