/**
 * @file
 * RPC application-tier SLO bench (extension beyond the paper's §6:
 * an RPC service dispatching accelerator-backed methods over the
 * flextcp-style host fast path, FLD-served vs CPU-served).
 *
 * At each size point (1k / 10k connections) the bench sweeps offered
 * load through the closed-loop clients' think time and reports, per
 * (point, mode):
 *
 *   - completed request rate (req/s of simulated time) and response
 *     goodput,
 *   - request latency p50 / p99 / p99.9 (client build-to-decode,
 *     including ring backpressure),
 *   - whether the point met the p99 SLO bound (reported, not failed:
 *     the SLO curve is the deliverable),
 *   - wall-clock simulation cost.
 *
 * The run FAILS (non-zero exit) when any harness oracle trips (shadow
 * conformance, lifecycle, conservation, quiescence), when the FLD-
 * and CPU-served runs of a fault-free point disagree on the
 * per-request digest map, or when a repeated run is not bit-identical
 * (state_hash). One point also runs under targeted wire loss to pin
 * the fault-overlap behavior. Results go to BENCH_RPC.json
 * (--out=PATH) as a bench::Report; --baseline=PATH fails the run when
 * a simulated row differs from bench/baselines/BENCH_RPC.json.
 *
 * Usage: bench_rpc [--out=PATH] [--baseline=PATH] [--max-conns=N]
 */
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/rpc_harness.h"
#include "bench/bench_util.h"
#include "util/strings.h"

namespace {

using namespace fld;

/** p99 bound the SLO curve is judged against. */
constexpr double kSloP99Us = 1000.0;

struct PointResult
{
    uint32_t conns = 0;
    uint32_t think_us = 0;
    const char* mode = "";
    bool faulty = false;
    double sim_sec = 0;
    double req_per_sec = 0;
    double goodput_gbps = 0;
    double p50_us = 0, p99_us = 0, p999_us = 0, mean_us = 0;
    bool slo_met = false;
    double wall_sec = 0;
    uint64_t digest_hash = 0;
    uint64_t state_hash = 0;
    bool ok = false;
    std::string first_violation;
};

apps::RpcHarnessConfig
point_cfg(apps::FastPathMode mode, uint32_t conns, uint32_t think_us)
{
    apps::RpcHarnessConfig cfg;
    cfg.mode = mode;
    cfg.client.connections = conns;
    cfg.client.requests_per_conn = conns >= 10'000 ? 2 : 4;
    cfg.client.payload_min = 64;
    cfg.client.payload_max = 512;
    cfg.client.methods_mask = 0xf; // echo + zuc + defrag + busy
    cfg.client.think_mean = sim::microseconds(double(think_us));
    cfg.client.seed = 42;
    // Same pacing/RTO tuning as bench_fastpath's 10k acceptance
    // point: open storms near the service rate, RTO above the
    // congested RTT.
    cfg.client.open_batch = 64;
    cfg.client.open_interval = sim::microseconds(50);
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.client.tx_ring_entries = 256;
    cfg.client.rx_ring_entries = 1024;
    cfg.server.tx_ring_entries = 512;
    cfg.server.rx_ring_entries = 1024;
    return cfg;
}

PointResult
run_point(const apps::RpcHarnessConfig& cfg)
{
    PointResult r;
    r.conns = cfg.client.connections;
    r.think_us = uint32_t(sim::to_us(cfg.client.think_mean));
    r.mode = cfg.mode == apps::FastPathMode::Fld ? "fld" : "cpu";
    r.faulty = cfg.tb.nic.wire_faults.enabled();

    auto t0 = std::chrono::steady_clock::now();
    apps::RpcReport rep = apps::run_rpc_scenario(cfg);
    r.wall_sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();

    r.sim_sec = double(rep.end_time) * 1e-12;
    r.req_per_sec = rep.req_per_sec;
    r.goodput_gbps = rep.goodput_gbps;
    r.p50_us = rep.p50_us;
    r.p99_us = rep.p99_us;
    r.p999_us = rep.p999_us;
    r.mean_us = rep.mean_us;
    r.slo_met = rep.p99_us > 0 && rep.p99_us <= kSloP99Us;
    r.digest_hash = rep.digest_hash;
    r.state_hash = rep.state_hash;
    r.ok = rep.ok;
    if (!rep.violations.empty())
        r.first_violation = rep.violations.front();
    return r;
}

void
print_point(const PointResult& r)
{
    bench::note(strfmt(
        "%5u conns think=%2uus (%s%s): %9.0f req/s, %6.3f Gbps, "
        "p50 %7.1f p99 %8.1f p99.9 %8.1f us, SLO(p99<=%.0fus) %s,"
        " wall %5.2f s%s",
        r.conns, r.think_us, r.mode, r.faulty ? "+faults" : "",
        r.req_per_sec, r.goodput_gbps, r.p50_us, r.p99_us, r.p999_us,
        kSloP99Us, r.slo_met ? "met" : "MISSED", r.wall_sec,
        r.ok ? "" : "  ** FAIL **"));
    if (!r.ok)
        bench::note("    violation: " + r.first_violation);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_RPC.json", baseline;
    uint64_t max_conns = 10'000;
    bench::parse_flags(argc, argv,
                       {{"out", out},
                        {"baseline", baseline},
                        {"max-conns", max_conns}});

    bench::banner("RPC application tier SLO",
                  "extension: accel-backed RPC over the host fast "
                  "path, FLD-served vs CPU-served");

    std::vector<PointResult> results;
    bool all_ok = true;

    auto run_pair = [&](uint32_t conns, uint32_t think_us,
                        bool faulty) {
        auto make = [&](apps::FastPathMode m) {
            apps::RpcHarnessConfig cfg = point_cfg(m, conns, think_us);
            if (faulty) {
                // Heavy enough that the targeted flow is guaranteed
                // to lose frames and retransmit through the sweep.
                cfg.tb.nic.wire_faults.drop_prob = 0.25;
                cfg.tb.nic.wire_faults.duplicate_prob = 0.10;
                cfg.tb.fault_seed = 0x5eed;
                cfg.fault_target_port = 21000 + 7;
            }
            return cfg;
        };
        PointResult fld = run_point(make(apps::FastPathMode::Fld));
        PointResult cpu = run_point(make(apps::FastPathMode::Cpu));
        print_point(fld);
        print_point(cpu);
        // Per-request digests must be identical across the serving
        // modes whenever no frame was lost (faults gate it: resets
        // legitimately drop requests).
        bool digests_match =
            faulty || fld.digest_hash == cpu.digest_hash;
        bench::note(strfmt(
            "%5u conns think=%2uus: per-request digests %s", conns,
            think_us,
            faulty             ? "not compared (faulty point)"
            : digests_match    ? "identical (fld == cpu)"
                               : "DIVERGE  ** FAIL **"));
        all_ok = all_ok && fld.ok && cpu.ok && digests_match;
        results.push_back(fld);
        results.push_back(cpu);
    };

    // SLO curve at 1k connections: offered load swept by think time.
    for (uint32_t think_us : {20u, 5u, 0u})
        run_pair(1'000, think_us, /*faulty=*/false);
    // Fault overlap: targeted wire loss on one client's flow.
    run_pair(1'000, 5, /*faulty=*/true);
    // Scale point.
    if (10'000u <= max_conns)
        run_pair(10'000, 20, /*faulty=*/false);

    // Rerun determinism: the same config must be bit-identical.
    {
        PointResult a = run_point(
            point_cfg(apps::FastPathMode::Fld, 1'000, 5));
        bool identical = false;
        for (const PointResult& r : results)
            if (r.conns == 1'000 && r.think_us == 5 && !r.faulty &&
                std::strcmp(r.mode, "fld") == 0)
                identical = r.state_hash == a.state_hash;
        bench::note(strfmt("rerun state_hash %016" PRIx64 ": %s",
                           a.state_hash,
                           identical ? "bit-identical"
                                     : "NON-DETERMINISTIC  ** FAIL **"));
        all_ok = all_ok && identical;
    }

    if (!all_ok) {
        std::fprintf(stderr, "bench_rpc: oracle FAILURE\n");
        return 1;
    }

    bench::Report report;
    for (const PointResult& r : results) {
        std::string p = strfmt("%s_%u_think%u%s.", r.mode, r.conns,
                               r.think_us, r.faulty ? "_faults" : "");
        report.real(p + "req_per_sec", r.req_per_sec, "1/s");
        report.real(p + "goodput_gbps", r.goodput_gbps, "Gbps");
        report.real(p + "p50_us", r.p50_us, "us");
        report.real(p + "p99_us", r.p99_us, "us");
        report.real(p + "p999_us", r.p999_us, "us");
        report.real(p + "mean_us", r.mean_us, "us");
        report.hash(p + "digest_hash", r.digest_hash);
        report.hash(p + "state_hash", r.state_hash);
        report.real(p + "sim_ms", r.sim_sec * 1e3, "ms");
        report.real(p + "wall_sec", r.wall_sec, "s", bench::Gate::None);
    }
    return bench::finish(report, out, baseline);
}
