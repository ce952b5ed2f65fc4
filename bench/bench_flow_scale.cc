/**
 * @file
 * Million-flow control-plane scaling bench (extension beyond the
 * paper's Table 3).
 *
 * At each size point (1k / 10k / 100k / 1M flows) the bench builds a
 * many-tenant churn scenario, runs it through the ChurnHarness (which
 * judges the shadow/stat/budget oracles), and reports:
 *
 *   - churn throughput (flow opens+closes per wall-clock second),
 *   - packet-accounting throughput (record() ops/sec),
 *   - lookup latency (ns per find() over a live-key sample),
 *   - resident SRAM bytes vs model::flow_directory_memory (the run
 *     FAILS when any point diverges beyond 5%),
 *   - whether the point still fits the XCKU15P together with the
 *     paper-config FLD driver state.
 *
 * Results go to BENCH_FLOW_SCALE.json (override with --out=PATH) as a
 * bench::Report; --baseline=PATH fails the run when a simulated row
 * differs from bench/baselines/BENCH_FLOW_SCALE.json. --max-flows=N
 * skips larger points (CI runs the 100k point; the 1M point is the
 * local/Release target, < 60 s). The exit code is non-zero on any
 * oracle violation or model divergence, so this binary doubles as a
 * conformance check.
 *
 * Usage: bench_flow_scale [--out=PATH] [--baseline=PATH] [--max-flows=N]
 */
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/churn_harness.h"
#include "bench/bench_util.h"
#include "model/memory_model.h"
#include "util/strings.h"

namespace {

using namespace fld;

struct PointSpec
{
    uint64_t flows;     ///< directory capacity
    uint32_t tenants;
    uint32_t flows_per_tenant; ///< target live population / tenants
};

struct PointResult
{
    size_t live = 0;
    double churn_ops_per_sec = 0;
    double record_ops_per_sec = 0;
    double lookup_ns = 0;
    uint64_t resident_bytes = 0;
    double model_bytes = 0;
    double model_delta_pct = 0;
    bool fits_on_chip = false;
    bool ok = false;
    std::string first_violation;
};

double
elapsed_sec(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

PointResult
run_point(const PointSpec& spec, uint64_t steady_events)
{
    PointResult r;

    apps::ChurnHarnessConfig cfg;
    cfg.churn.tenants = spec.tenants;
    cfg.churn.flows_per_tenant = spec.flows_per_tenant;
    cfg.churn.packet_fraction = 0.5; // half churn, half packets
    cfg.churn.seed = 0xf10c + spec.flows;
    cfg.directory.flow_capacity = spec.flows;
    // The exact oracle costs ~64 B/flow of host memory and O(n) final
    // sweep; keep it on through 100k and trust the (identical) logic
    // plus the stat/budget oracles at the 1M point.
    cfg.shadow_oracle = spec.flows <= 200'000;

    apps::ChurnHarness harness(cfg);
    harness.ramp();

    auto t0 = std::chrono::steady_clock::now();
    harness.step(steady_events);
    double churn_sec = elapsed_sec(t0);

    apps::ChurnReport rep = harness.report();
    const core::FlowDirectory& dir = harness.directory();

    // Throughput split: opens+closes vs packet records.
    uint64_t churn_ops = rep.opens + rep.closes;
    r.churn_ops_per_sec = double(churn_ops) / churn_sec;
    r.record_ops_per_sec =
        double(rep.packets + rep.shaped_drops) / churn_sec;

    // Lookup latency over a stride sample of the live set.
    const auto& live = harness.gen().live_flows();
    size_t samples = std::min<size_t>(live.size(), 200'000);
    size_t stride = live.size() / std::max<size_t>(samples, 1);
    stride = std::max<size_t>(stride, 1);
    uint64_t found = 0;
    t0 = std::chrono::steady_clock::now();
    for (size_t i = 0, n = 0; n < samples; i += stride, ++n)
        found += dir.find(live[i % live.size()].key) ? 1 : 0;
    double lookup_sec = elapsed_sec(t0);
    r.lookup_ns = lookup_sec * 1e9 / double(samples);

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
    model::FlowScaleBreakdown mb = model::flow_directory_memory(mp);
    r.model_bytes = mb.total;
    r.model_delta_pct = 100.0 *
                        (double(r.resident_bytes) - mb.total) /
                        mb.total;
    r.fits_on_chip = r.resident_bytes <= core::kXcku15pBytes;

    r.ok = rep.ok() && found == samples &&
           std::abs(r.model_delta_pct) <= 5.0;
    if (!rep.violations.empty())
        r.first_violation = rep.violations.front();
    else if (found != samples)
        r.first_violation = "live-key lookup missed";
    else if (std::abs(r.model_delta_pct) > 5.0)
        r.first_violation = strfmt("model divergence %.2f%%",
                                   r.model_delta_pct);
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_FLOW_SCALE.json", baseline;
    uint64_t max_flows = 1'048'576;
    bench::parse_flags(argc, argv,
                       {{"out", out},
                        {"baseline", baseline},
                        {"max-flows", max_flows}});

    bench::banner("Flow-directory scaling",
                  "extension: million-flow control plane");

    const std::vector<PointSpec> points = {
        {1'024, 16, 51},        // ~816 live
        {10'240, 64, 128},      // ~8.2k live
        {102'400, 256, 320},    // ~82k live
        {1'048'576, 256, 3'640} // ~932k live
    };

    bench::Report report;
    bool all_ok = true;
    for (const PointSpec& p : points) {
        if (p.flows > max_flows)
            continue;
        uint64_t n = std::min<uint64_t>(
            std::max<uint64_t>(p.flows, 200'000), 2'000'000);
        PointResult r = run_point(p, n);
        all_ok = all_ok && r.ok;
        bench::note(strfmt(
            "%8" PRIu64 " flows: churn %7.2f Mops/s, record %7.2f "
            "Mops/s, lookup %6.1f ns, SRAM %8.2f KiB (model %+.2f%%)"
            "%s%s",
            p.flows, r.churn_ops_per_sec / 1e6,
            r.record_ops_per_sec / 1e6, r.lookup_ns,
            double(r.resident_bytes) / 1024.0, r.model_delta_pct,
            r.fits_on_chip ? ", fits XCKU15P" : ", exceeds XCKU15P",
            r.ok ? "" : "  ** FAIL **"));
        if (!r.ok)
            bench::note("    violation: " + r.first_violation);
        std::string f = strfmt("flows_%" PRIu64 ".", p.flows);
        report.count(f + "live", r.live, "flows");
        report.count(f + "resident_bytes", r.resident_bytes, "B");
        report.real(f + "model_bytes", r.model_bytes, "B");
        report.real(f + "model_delta_pct", r.model_delta_pct, "%");
        report.real(f + "churn_ops_per_sec", r.churn_ops_per_sec, "1/s",
                    bench::Gate::None);
        report.real(f + "record_ops_per_sec", r.record_ops_per_sec,
                    "1/s", bench::Gate::None);
        report.real(f + "lookup_ns", r.lookup_ns, "ns", bench::Gate::None);
    }

    if (!all_ok) {
        std::fprintf(stderr,
                     "bench_flow_scale: oracle/model FAILURE\n");
        return 1;
    }
    return bench::finish(report, out, baseline);
}
