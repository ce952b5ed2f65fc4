/**
 * @file
 * bench_paper rows that run Ethernet echo exchanges: Figure 7b's
 * throughput sweep with its IMC-2010 packet rates, Table 6's round
 * trips, and the packet-lifecycle trace smoke.
 */
#include <tuple>

#include "bench/paper.h"
#include "model/perf_model.h"
#include "sim/trace.h"

namespace fld::bench::paper {

namespace {

constexpr sim::TimePs kWarmup = sim::milliseconds(1);
constexpr sim::TimePs kDuration = sim::milliseconds(4);

/** Prints @p tracer's invariant violations; returns their count. */
size_t
check_trace(const char* what, const sim::Tracer& tracer)
{
    auto v = sim::TraceChecker().check(tracer.events());
    note(strfmt("%s: %zu events, %zu invariant violations", what,
                tracer.events().size(), v.size()));
    for (const std::string& why : v)
        note("  VIOLATION: " + why);
    return v.size();
}

} // namespace

void
figure7b(Run& run)
{
    banner("Figure 7b: echo throughput vs packet size",
           "FlexDriver §8.1.1-8.1.2");

    model::PerfModelParams remote_model;
    remote_model.eth_gbps = 25.0;
    remote_model.pcie_gbps = 50.0;

    TextTable t;
    t.header({"Frame B", "FLD-E remote", "FLD-E local", "CPU remote",
              "FLD-R remote", "FLD-R local", "model (remote)",
              "eth line"});
    const char* const series[] = {"fld_e_remote", "fld_e_local",
                                  "cpu_remote",   "fld_r_remote",
                                  "fld_r_local",  "model_remote",
                                  "eth_line"};
    const std::vector<size_t> sizes = {64, 128, 256, 512, 1024, 1500};
    /** One size's Gbps per series, and the engine telemetry of its
     *  first kEchoSeries (run_echo) runs. */
    constexpr size_t kEchoSeries = 3;
    struct SizePoint
    {
        std::vector<double> gbps;
        EngineSample engine[kEchoSeries];
    };
    // Each size builds independent testbeds, so sizes sweep in
    // parallel (--jobs=N); results land in size order either way.
    auto points = parallel_rows(sizes.size(), run.jobs, [&](size_t i) {
        size_t size = sizes[i];
        SizePoint p;
        // Local has no wire pacing: a closed loop self-regulates at
        // the PCIe bottleneck instead of collapsing under overload.
        auto fld_e = [&](bool remote, EngineSample* engine) {
            apps::PktGenConfig g = remote ? open_loop_gen(size)
                                          : closed_loop_gen(size, 256);
            return run_echo(true, remote, g, kWarmup, kDuration,
                            echo_gbps, {}, engine);
        };
        // FLD-R: message = frame payload; headers ride the transport.
        p.gbps = {
            fld_e(true, &p.engine[0]), fld_e(false, &p.engine[1]),
            run_echo(false, true, open_loop_gen(size), kWarmup, kDuration,
                     echo_gbps, {}, &p.engine[2]),
            run_fldr_echo(true, size, 0, kDuration).achieved_gbps,
            run_fldr_echo(false, size, 0, kDuration).achieved_gbps,
            model::fld_expected_gbps(remote_model, uint32_t(size)),
            model::eth_goodput_gbps(25.0, uint32_t(size))};
        return p;
    });
    // The echo runs' engine telemetry, printed after the IMC table.
    std::vector<std::pair<std::string, EngineSample>> engine;
    for (size_t i = 0; i < sizes.size(); ++i) {
        std::vector<std::string> cells = {strfmt("%zu", sizes[i])};
        for (size_t k = 0; k < points[i].gbps.size(); ++k) {
            std::string point = strfmt("%s_%zuB", series[k], sizes[i]);
            cells.push_back(format_gbps(points[i].gbps[k]));
            run.report.real(point + ".gbps", points[i].gbps[k], "Gbps");
            if (k < kEchoSeries)
                engine.emplace_back(point, points[i].engine[k]);
        }
        t.row(cells);
    }
    t.print();
    note("paper shape: FLD-E meets the model from ~128 B "
         "(remote) / ~256 B (local); on par with the CPU "
         "driver; FLD-R slightly lower, meeting 25 Gbps for "
         ">= 512 B messages");

    banner("IMC-2010 mixed sizes: packet rate", "§8.1.1");
    auto mix_mpps = [&](bool fld) {
        EngineSample e;
        double mpps = run_echo(fld, true, imc_mix_gen(), kWarmup, kDuration,
                               [](const auto& s) {
                                   return s.gen->rx_meter().mpps(
                                       s.gen->measure_start(),
                                       s.gen->measure_end());
                               },
                               {}, &e);
        engine.emplace_back(fld ? "imc.fld_e" : "imc.cpu", e);
        return mpps;
    };
    double fld_mpps = mix_mpps(true);
    double cpu_mpps = mix_mpps(false);
    TextTable m;
    m.header({"Driver", "Mpps", "(paper)"});
    m.row({"FLD-E echo", strfmt("%.1f", fld_mpps), "12.7"});
    m.row({"CPU testpmd (1 core)", strfmt("%.1f", cpu_mpps), "9.6"});
    m.row({"ratio", strfmt("%.2fx", fld_mpps / cpu_mpps), "1.32x"});
    m.print();
    run.report.real("imc.fld_e_mpps", fld_mpps, "Mpps");
    run.report.real("imc.cpu_mpps", cpu_mpps, "Mpps");

    // Simulator throughput: host seconds and events/sec go to the
    // report only, so stdout stays the same on any machine.
    banner("Engine telemetry of the echo runs above",
           "simulator throughput");
    TextTable e;
    e.header({"Run", "events", "packets", "sim ms", "avg bkt",
              "max bkt", "cascades", "parses/echo"});
    for (const auto& [point, s] : engine) {
        // Header parses per echoed frame, both NICs and both hosts:
        // what parsing once per NIC pass saves, free of host timing.
        double parses_per_echo = double(s.parses) / double(s.echoes);
        e.row({point, strfmt("%llu", (unsigned long long)s.events),
               strfmt("%llu", (unsigned long long)s.packets),
               strfmt("%.3f", sim::to_ms(s.sim_time)),
               strfmt("%.1f", s.wheel.avg_bucket_occupancy()),
               strfmt("%llu", (unsigned long long)s.wheel.max_bucket),
               strfmt("%llu", (unsigned long long)s.wheel.cascades),
               strfmt("%.2f", parses_per_echo)});
        engine_rows(run.report, point, s);
        run.report.real(point + ".parses_per_echo", parses_per_echo,
                        "parses");
    }
    e.print();
}

void
table6(Run& run)
{
    banner("Table 6: echo round trip, 64 B packets (us)",
           "FlexDriver §8.1.1");

    // window=1: unloaded round trips.
    auto rtt = [](bool fld) {
        return run_echo(fld, true, closed_loop_gen(64, 1, true),
                        sim::microseconds(200), sim::milliseconds(120),
                        [](const auto& s) { return s.gen->rtt_us(); });
    };
    sim::Histogram fld = rtt(true);
    sim::Histogram cpu = rtt(false);

    TextTable t;
    t.header({"", "Mean", "Median", "99th-%", "99.9th-%", "samples"});
    for (auto [label, key, h] : {std::tuple("FLD-E", "fld", &fld),
                                 std::tuple("CPU", "cpu", &cpu)}) {
        t.row({label, strfmt("%.2f", h->mean()),
               strfmt("%.2f", h->median()),
               strfmt("%.2f", h->percentile(99)),
               strfmt("%.2f", h->percentile(99.9)),
               strfmt("%zu", h->count())});
        std::string name = std::string(key) + ".";
        run.report.real(name + "mean_us", h->mean(), "us");
        run.report.real(name + "median_us", h->median(), "us");
        run.report.real(name + "p99_us", h->percentile(99), "us");
        run.report.real(name + "p999_us", h->percentile(99.9), "us");
        run.report.count(name + "samples", h->count());
    }
    t.separator();
    t.row({"(paper FLD-E)", "2.78", "2.6", "3.4", "4.34", ""});
    t.row({"(paper CPU)", "2.36", "2.34", "2.58", "11.18", ""});
    t.print();

    note(strfmt("shape checks: FLD mean/CPU mean = %.2f (paper 1.17); "
                "CPU p99.9 / FLD p99.9 = %.2f (paper 2.5)",
                fld.mean() / cpu.mean(),
                cpu.percentile(99.9) / fld.percentile(99.9)));
}

int
trace_smoke(const std::string& path)
{
    banner("Packet-lifecycle trace smoke (--trace)", "tracing extension");

    // Fault-free FLD-E echo, traced from setup through drain.
    sim::Tracer tracer;
    tracer.install();
    run_echo(true, true, closed_loop_gen(256, 8), sim::microseconds(10),
             sim::microseconds(200), [](const auto&) { return 0; });
    tracer.uninstall();
    size_t violations = check_trace("fault-free FLD-E echo", tracer);
    if (!tracer.write_chrome_json(path)) {
        note("FAILED to write trace to " + path);
        return 1;
    }
    note("wrote Chrome trace JSON to " + path +
         " (load it at https://ui.perfetto.dev)");

    // 5%-loss FLD-R echo: go-back-N recovery must stay causally
    // ordered, and completions exactly-once, under a lossy wire.
    sim::Tracer lossy;
    lossy.install();
    {
        apps::TestbedConfig tb;
        tb.fault_seed = 42;
        tb.nic.wire_faults.drop_prob = 0.05;
        auto s = apps::make_fldr_echo(true, tb);
        uint32_t next = 1; // 30 messages, 8 in flight
        auto post_next = [&] {
            if (next <= 30) {
                s->client->post_send(
                    std::vector<uint8_t>(2048, uint8_t(next)), next);
                ++next;
            }
        };
        s->client->set_msg_handler(
            [&](uint32_t, std::vector<uint8_t>&&) { post_next(); });
        for (uint32_t i = 0; i < 8; ++i)
            post_next();
        s->tb->eq.run();
    }
    lossy.uninstall();
    violations += check_trace("5%-loss FLD-R echo", lossy);

    note(violations == 0 ? "trace smoke: PASS" : "trace smoke: FAIL");
    return violations == 0 ? 0 : 1;
}

} // namespace fld::bench::paper
