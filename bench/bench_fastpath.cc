/**
 * @file
 * Host fast path serving bench (extension beyond the paper's §6: the
 * flextcp-style per-flow TCP fast path served by the FLD vs by the
 * conventional CPU driver).
 *
 * At each size point (1k / 10k connections) the bench runs the same
 * AppEmu open/serve/close workload through apps::run_fastpath_scenario
 * twice — server stack FLD-served and CPU-served — and reports, per
 * mode:
 *
 *   - connection setup+teardown throughput (full open->serve->close
 *     lifecycles per simulated second),
 *   - per-connection and aggregate goodput (application bytes the
 *     server delivered, excluding headers and retransmissions),
 *   - wall-clock simulation cost of the point.
 *
 * The run FAILS (non-zero exit) when any harness oracle trips, when a
 * connection fails to close, or when the FLD- and CPU-served runs of
 * a point disagree on the per-flow digest map (flow_hash) — so this
 * binary doubles as the acceptance check for the differential claim
 * at scale. Results go to BENCH_FASTPATH.json (--out=PATH) as a
 * bench::Report; --baseline=PATH fails the run when a simulated row
 * differs from bench/baselines/BENCH_FASTPATH.json.
 *
 * Usage: bench_fastpath [--out=PATH] [--baseline=PATH] [--max-conns=N]
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/fastpath_harness.h"
#include "bench/bench_util.h"
#include "util/strings.h"

namespace {

using namespace fld;

struct PointResult
{
    uint32_t conns = 0;
    const char* mode = "";
    double sim_sec = 0;
    double conns_per_sec = 0;    ///< lifecycles / simulated second
    double goodput_gbps = 0;     ///< aggregate delivered app bytes
    double per_conn_mbps = 0;    ///< goodput_gbps / conns
    double wall_sec = 0;
    uint64_t flow_hash = 0;
    bool ok = false;
    std::string first_violation;
};

apps::FastPathHarnessConfig
point_cfg(apps::FastPathMode mode, uint32_t conns)
{
    apps::FastPathHarnessConfig cfg;
    cfg.mode = mode;
    cfg.app.connections = conns;
    cfg.app.requests_per_conn = 2;
    cfg.app.request_bytes = 256;
    // Same pacing/RTO tuning as the 10k acceptance scenario: open
    // storms near the service rate, RTO above the congested RTT (a
    // fixed 200 us RTO under 10k-way concurrency turns queueing delay
    // into spurious go-back-N retransmits).
    cfg.app.open_batch = 64;
    cfg.app.open_interval = sim::microseconds(50);
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.app.tx_ring_entries = 256;
    cfg.app.rx_ring_entries = 1024;
    cfg.sink.rx_ring_entries = 1024;
    return cfg;
}

PointResult
run_point(apps::FastPathMode mode, uint32_t conns)
{
    PointResult r;
    r.conns = conns;
    r.mode = mode == apps::FastPathMode::Fld ? "fld" : "cpu";

    auto t0 = std::chrono::steady_clock::now();
    apps::FastPathReport rep =
        apps::run_fastpath_scenario(point_cfg(mode, conns));
    r.wall_sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();

    r.sim_sec = double(rep.end_time) * 1e-12;
    if (r.sim_sec > 0) {
        r.conns_per_sec = double(rep.closed) / r.sim_sec;
        r.goodput_gbps = double(rep.server_bytes) * 8.0 / r.sim_sec /
                         1e9;
        r.per_conn_mbps = r.goodput_gbps * 1e3 / double(conns);
    }
    r.flow_hash = rep.flow_hash;
    r.ok = rep.ok && rep.closed == conns && rep.resets == 0;
    if (!rep.violations.empty())
        r.first_violation = rep.violations.front();
    else if (rep.closed != conns)
        r.first_violation = strfmt("%u/%u connections closed",
                                   rep.closed, conns);
    else if (rep.resets != 0)
        r.first_violation = strfmt("%u resets", rep.resets);
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_FASTPATH.json", baseline;
    uint64_t max_conns = 10'000;
    bench::parse_flags(argc, argv,
                       {{"out", out},
                        {"baseline", baseline},
                        {"max-conns", max_conns}});

    bench::banner("Host fast path serving",
                  "extension: per-flow TCP, FLD-served vs CPU-served");

    bench::Report report;
    bool all_ok = true;
    for (uint32_t conns : {1'000u, 10'000u}) {
        if (conns > max_conns)
            continue;
        PointResult fld = run_point(apps::FastPathMode::Fld, conns);
        PointResult cpu = run_point(apps::FastPathMode::Cpu, conns);
        bool digests_match = fld.flow_hash == cpu.flow_hash;
        all_ok = all_ok && fld.ok && cpu.ok && digests_match;

        for (const PointResult& r : {fld, cpu}) {
            bench::note(strfmt(
                "%5u conns (%s): %9.0f conns/s, %6.3f Gbps aggregate,"
                " %7.3f Mbps/conn, sim %6.2f ms, wall %5.2f s%s",
                r.conns, r.mode, r.conns_per_sec, r.goodput_gbps,
                r.per_conn_mbps, r.sim_sec * 1e3, r.wall_sec,
                r.ok ? "" : "  ** FAIL **"));
            if (!r.ok)
                bench::note("    violation: " + r.first_violation);
            std::string p = strfmt("%s_%u.", r.mode, r.conns);
            report.real(p + "conns_per_sec", r.conns_per_sec, "1/s");
            report.real(p + "goodput_gbps", r.goodput_gbps, "Gbps");
            report.real(p + "per_conn_mbps", r.per_conn_mbps, "Mbps");
            report.real(p + "sim_ms", r.sim_sec * 1e3, "ms");
            report.hash(p + "flow_hash", r.flow_hash);
            report.real(p + "wall_sec", r.wall_sec, "s",
                        bench::Gate::None);
        }
        bench::note(strfmt("%5u conns: per-flow digests %s", conns,
                           digests_match ? "identical (fld == cpu)"
                                         : "DIVERGE  ** FAIL **"));
    }

    if (!all_ok) {
        std::fprintf(stderr, "bench_fastpath: oracle FAILURE\n");
        return 1;
    }
    return bench::finish(report, out, baseline);
}
