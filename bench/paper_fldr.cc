/**
 * @file
 * bench_paper rows that run FLD-R exchanges: Figure 7c's echo latency
 * under load and Figure 8's disaggregated ZUC encryption, against the
 * CPU software baseline.
 */
#include <cstdio>
#include <functional>
#include <map>

#include "bench/paper.h"
#include "model/perf_model.h"

namespace fld::bench::paper {

namespace {

} // namespace

LoadPoint
run_fldr_echo(bool remote, size_t msg_bytes, double offered_gbps,
              sim::TimePs duration)
{
    auto s = apps::make_fldr_echo(remote);
    auto& eq = s->tb->eq;
    auto& client = *s->client;
    sim::TimePs start_measure = eq.now() + sim::milliseconds(1);
    sim::TimePs end = eq.now() + duration;

    sim::RateMeter meter;
    sim::Histogram lat_us;
    std::map<uint32_t, sim::TimePs> sent_at;
    uint32_t next_id = 1;
    auto send = [&] {
        uint32_t id = next_id++;
        sent_at[id] = eq.now();
        client.post_send(std::vector<uint8_t>(msg_bytes, 0x5a), id);
    };
    client.set_msg_handler([&](uint32_t id, std::vector<uint8_t>&& msg) {
        auto it = sent_at.find(id);
        if (it == sent_at.end())
            return;
        if (eq.now() >= start_measure && eq.now() <= end) {
            meter.record(eq.now(), msg.size());
            lat_us.add(sim::to_us(eq.now() - it->second));
        }
        sent_at.erase(it);
        if (offered_gbps == 0 && eq.now() < end)
            send();
    });

    sim::TimePs gap =
        offered_gbps > 0 ? sim::serialize_time(msg_bytes, offered_gbps) : 0;
    std::function<void()> tick = [&] {
        if (eq.now() >= end)
            return;
        send();
        eq.schedule_in(gap, tick);
    };
    if (offered_gbps > 0)
        tick();
    else
        for (int i = 0; i < 64; ++i)
            send();
    eq.run();
    return {meter.gbps(start_measure, end), lat_us.median(),
            lat_us.percentile(99)};
}

namespace {

/** Remote FLD-R ZUC client of @p request_bytes requests, run for
 *  1 + 5 ms: with @p offered_gbps open loop, else 64 in flight. */
LoadPoint
run_zuc(size_t request_bytes, double offered_gbps)
{
    auto s = apps::make_fldr_zuc(true);
    apps::CryptoPerfConfig cfg;
    cfg.request_payload = request_bytes;
    cfg.offered_gbps = offered_gbps;
    cfg.window = offered_gbps > 0 ? cfg.window : 64;
    apps::CryptoPerfClient perf(s->tb->eq, *s->client, cfg);
    perf.start(sim::milliseconds(1), sim::milliseconds(5));
    s->tb->eq.run();
    return {perf.response_meter().gbps(perf.measure_start(),
                                       perf.last_response()),
            perf.latency_us().median(), perf.latency_us().percentile(99)};
}

/**
 * CPU software ZUC (single core, Intel multi-buffer-library-class
 * implementation): nanoseconds per request. Calibrated to the paper's
 * measurement that the remote accelerator's 17.6 Gbps is ~4x the CPU
 * at >= 512 B requests: per-request overhead ~250 ns plus ~6 Gbps of
 * streaming throughput.
 */
double
cpu_zuc_ns(size_t request_bytes)
{
    return 250.0 + double(request_bytes) * 8.0 / 6.0;
}

/** CPU path at 512 B: latency is the service time plus M/M/1-style
 *  queueing against the core's capacity. */
LoadPoint
cpu_zuc_load(double offered_gbps)
{
    double service_us = cpu_zuc_ns(512) / 1000.0;
    double capacity_gbps = 512.0 * 8.0 / (service_us * 1000.0);
    double rho = offered_gbps / capacity_gbps;
    if (rho >= 0.99)
        return {capacity_gbps, 1e3, 1e3}; // saturated
    double wait_us = service_us * rho / (1.0 - rho);
    return {offered_gbps, service_us + wait_us,
            (service_us + wait_us) * 3.0};
}

} // namespace

void
figure7c(Run& run)
{
    banner("Figure 7c: FLD-R latency vs load (1 KiB messages)",
           "FlexDriver §8.1.2");

    Report& r = run.report;
    for (bool remote : {false, true}) {
        const char* where = remote ? "remote" : "local";
        std::printf("\n-- %s --\n", where);
        TextTable t;
        t.header({"Offered Gbps", "Achieved Gbps", "Median us",
                  "p99 us"});
        for (double offered :
             {2.0, 5.0, 8.0, 11.0, 14.0, 16.0, 18.0, 20.0}) {
            LoadPoint p =
                run_fldr_echo(remote, 1024, offered, sim::milliseconds(5));
            t.row({format_gbps(offered), format_gbps(p.achieved_gbps),
                   strfmt("%.1f", p.median_us), strfmt("%.1f", p.p99_us)});
            std::string name = strfmt("%s_%gG.", where, offered);
            r.real(name + "achieved_gbps", p.achieved_gbps, "Gbps");
            r.real(name + "median_us", p.median_us, "us");
            r.real(name + "p99_us", p.p99_us, "us");
        }
        t.print();
    }
    note("paper shape: flat single-digit-us latency at low "
         "load; queueing dominates as load approaches the "
         "bandwidth knee (~82% of max)");
}

void
figure8a(Run& run)
{
    banner("Figure 8a: ZUC encryption throughput", "FlexDriver §8.2.1");

    model::PerfModelParams p;
    p.eth_gbps = 25.0;
    p.pcie_gbps = 50.0;

    TextTable t;
    t.header({"Request B", "FLD-R remote", "CPU (model)", "model bound",
              "FLD/CPU"});
    for (size_t size : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
        double fld = run_zuc(size, 0).achieved_gbps;
        double cpu = double(size) * 8.0 / cpu_zuc_ns(size);
        double bound = model::zuc_expected_gbps(p, uint32_t(size), 64,
                                                1024);
        t.row({strfmt("%zu", size), format_gbps(fld), format_gbps(cpu),
               format_gbps(bound), strfmt("%.1fx", fld / cpu)});
        std::string name = strfmt("%zuB.", size);
        run.report.real(name + "fld_gbps", fld, "Gbps");
        run.report.real(name + "cpu_gbps", cpu, "Gbps");
        run.report.real(name + "bound_gbps", bound, "Gbps");
    }
    t.print();
    note("paper shape: accelerator throughput rises with "
         "request size toward ~17.6 Gbps (89% of the model "
         "bound) and is ~4x the single-core CPU for >= 512 B");
}

void
figure8b(Run& run)
{
    banner("Figure 8b: ZUC latency vs bandwidth (512 B)",
           "FlexDriver §8.2.1");

    TextTable t;
    t.header({"Offered Gbps", "FLD achieved", "FLD median us",
              "FLD p99 us", "CPU median us"});
    Report& r = run.report;
    for (double offered : {1.0, 2.0, 4.0, 8.0, 12.0, 15.0, 17.0}) {
        LoadPoint fld = run_zuc(512, offered);
        LoadPoint cpu = cpu_zuc_load(offered);
        t.row({format_gbps(offered), format_gbps(fld.achieved_gbps),
               strfmt("%.1f", fld.median_us), strfmt("%.1f", fld.p99_us),
               cpu.median_us >= 1e3 ? "saturated"
                                    : strfmt("%.1f", cpu.median_us)});
        std::string name = strfmt("%gG.", offered);
        r.real(name + "fld_achieved_gbps", fld.achieved_gbps, "Gbps");
        r.real(name + "fld_median_us", fld.median_us, "us");
        r.real(name + "fld_p99_us", fld.p99_us, "us");
        r.real(name + "cpu_median_us", cpu.median_us, "us");
    }
    t.print();
    note("paper shape: the remote accelerator starts with a "
         "network RTT handicap at low load but keeps a flat "
         "latency to ~4x the bandwidth the CPU can serve");
}

} // namespace fld::bench::paper
