/**
 * @file
 * Figure 7c: FLD-R latency vs throughput for 1 KiB messages, local
 * and remote, sweeping offered load. Paper: ~9.4 us median local /
 * ~10.6 us remote at low load, queueing blow-up near ~82% of the
 * maximum bandwidth.
 *
 * Every point (local/remote x offered load) writes exact rows for its
 * achieved Gbps, median and p99 latency to BENCH_FIGURE7C.json
 * (--out=PATH) as a bench::Report; --baseline=PATH fails the run when
 * one differs from bench/baselines/BENCH_FIGURE7C.json.
 *
 * Usage: bench_figure7c_fldr_latency [--out=PATH] [--baseline=PATH]
 */
#include "apps/scenarios.h"
#include "bench/bench_util.h"

using namespace fld;
using namespace fld::apps;

namespace {

struct Point
{
    double offered_gbps;
    double achieved_gbps;
    double median_us;
    double p99_us;
};

Point
run_point(bool remote, double offered_gbps)
{
    constexpr size_t kMsg = 1024;
    auto s = make_fldr_echo(remote);
    auto& eq = s->tb->eq;
    auto& client = *s->client;

    sim::TimePs warmup = sim::milliseconds(1);
    sim::TimePs duration = sim::milliseconds(5);
    sim::TimePs start_measure = eq.now() + warmup;
    sim::TimePs end = eq.now() + duration;

    sim::RateMeter meter;
    sim::Histogram lat_us;
    std::map<uint32_t, sim::TimePs> sent_at;
    uint32_t next_id = 1;

    client.set_msg_handler([&](uint32_t id, std::vector<uint8_t>&&) {
        auto it = sent_at.find(id);
        if (it == sent_at.end())
            return;
        if (eq.now() >= start_measure && eq.now() <= end) {
            meter.record(eq.now(), kMsg);
            lat_us.add(sim::to_us(eq.now() - it->second));
        }
        sent_at.erase(it);
    });

    // Open loop at the offered rate.
    sim::TimePs gap = sim::serialize_time(kMsg, offered_gbps);
    std::function<void()> tick = [&] {
        if (eq.now() >= end)
            return;
        uint32_t id = next_id++;
        sent_at[id] = eq.now();
        client.post_send(std::vector<uint8_t>(kMsg, 0x5a), id);
        eq.schedule_in(gap, tick);
    };
    tick();
    eq.run();

    return {offered_gbps, meter.gbps(start_measure, end),
            lat_us.median(), lat_us.percentile(99)};
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_FIGURE7C.json", baseline;
    bench::parse_flags(argc, argv, {{"out", out}, {"baseline", baseline}});

    bench::banner("Figure 7c: FLD-R latency vs load (1 KiB messages)",
                  "FlexDriver §8.1.2");

    bench::Report report;
    for (bool remote : {false, true}) {
        const char* where = remote ? "remote" : "local";
        std::printf("\n-- %s --\n", where);
        TextTable t;
        t.header({"Offered Gbps", "Achieved Gbps", "Median us",
                  "p99 us"});
        for (double offered :
             {2.0, 5.0, 8.0, 11.0, 14.0, 16.0, 18.0, 20.0}) {
            Point p = run_point(remote, offered);
            t.row({format_gbps(p.offered_gbps),
                   format_gbps(p.achieved_gbps),
                   strfmt("%.1f", p.median_us),
                   strfmt("%.1f", p.p99_us)});
            std::string name = strfmt("%s_%gG.", where, offered);
            report.real(name + "achieved_gbps", p.achieved_gbps, "Gbps");
            report.real(name + "median_us", p.median_us, "us");
            report.real(name + "p99_us", p.p99_us, "us");
        }
        t.print();
    }
    bench::note("paper shape: flat single-digit-us latency at low "
                "load; queueing dominates as load approaches the "
                "bandwidth knee (~82% of max)");
    return bench::finish(report, out, baseline);
}
