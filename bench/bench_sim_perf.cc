/**
 * @file
 * Simulator-throughput telemetry: measures how fast the discrete-event
 * engine executes the paper's echo-throughput scenarios plus two
 * scheduler-stress points (a 10k-connection fast-path storm and a
 * million-event timer churn) and writes the samples to
 * BENCH_SIM_PERF.json so CI can archive simulator-speed numbers per
 * commit.
 *
 * This intentionally measures the *simulator*, not the simulated
 * hardware: the Gbps tables live in bench_figure7b; this file answers
 * "how long does reproducing them take, and is the engine regressing".
 * Per-sample wheel telemetry (bucket occupancy, cascades) shows how
 * the timing-wheel engine is spending its time.
 *
 * Compare mode: --baseline=PATH reads a previously written
 * BENCH_SIM_PERF.json and FAILS (exit 1) when any sample's events/sec
 * drops more than 20% below the baseline — the CI perf-smoke gate.
 * The fastpath_10k point also exits 1 when the harness oracles trip,
 * before any JSON is written.
 *
 * Usage: bench_sim_perf [--out=PATH] [--baseline=PATH] [--quick]
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "apps/fastpath_harness.h"
#include "apps/scenarios.h"
#include "bench/bench_util.h"
#include "sim/sim_perf.h"
#include "util/rng.h"

using namespace fld;
using namespace fld::apps;

namespace {

constexpr sim::TimePs kWarmup = sim::milliseconds(1);
constexpr sim::TimePs kDuration = sim::milliseconds(4);

/** Run one echo scenario to completion, sampling engine telemetry. */
template <class MakeScenario>
sim::SimPerfSample
sample_echo(const std::string& name, MakeScenario&& make,
            const PktGenConfig& g)
{
    auto s = make(g);
    s->gen->start(kWarmup, kDuration);
    auto& eq = s->tb->eq;
    uint64_t events0 = eq.executed_total();
    sim::TimePs sim0 = eq.now();
    sim::EventQueue::WheelStats wheel0 = eq.wheel_stats();
    auto t0 = std::chrono::steady_clock::now();
    eq.run();
    auto t1 = std::chrono::steady_clock::now();

    sim::SimPerfSample out;
    out.name = name;
    out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
    out.events = eq.executed_total() - events0;
    out.packets = s->gen->rx_meter().packets();
    out.sim_time = eq.now() - sim0;
    out.take_wheel_stats(eq, wheel0);
    return out;
}

/**
 * Fast-path scheduler stress: the 10k-connection open/serve/close
 * storm from bench_fastpath, FLD-served. Tens of thousands of
 * concurrent per-connection RTO timers plus the full NIC/PCIe event
 * plumbing — the timer-heavy counterpoint to the echo points.
 */
sim::SimPerfSample
sample_fastpath(const std::string& name, uint32_t conns)
{
    FastPathHarnessConfig cfg;
    cfg.mode = FastPathMode::Fld;
    cfg.app.connections = conns;
    cfg.app.requests_per_conn = 2;
    cfg.app.request_bytes = 256;
    cfg.app.open_batch = 64;
    cfg.app.open_interval = sim::microseconds(50);
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.app.tx_ring_entries = 256;
    cfg.app.rx_ring_entries = 1024;
    cfg.sink.rx_ring_entries = 1024;

    FastPathReport r = run_fastpath_scenario(cfg);
    if (!r.ok) {
        // A broken run's speed is no measurement: fail, archive nothing.
        std::fprintf(stderr, "%s: harness oracles tripped\n%s",
                     name.c_str(), r.summary().c_str());
        std::exit(1);
    }

    sim::SimPerfSample out;
    out.name = name;
    out.wall_sec = r.run_wall_sec;
    out.events = r.events;
    out.packets = r.server_stats.frames_rx;
    out.sim_time = r.end_time;
    return out;
}

/**
 * Timer churn: a large population of flow timers rescheduling at
 * RTO-like horizons until @p total_events have executed. This is the
 * pure-scheduler point — no testbed, just schedule/advance churn over
 * a pending set big enough to spread across wheel levels (the
 * million-flow control plane's timer load, distilled).
 */
sim::SimPerfSample
sample_timer_churn(const std::string& name, uint32_t population,
                   uint64_t total_events)
{
    sim::EventQueue eq;
    Rng rng(0x7e57);
    uint64_t fired = 0;

    // Each "flow" perpetually re-arms: mostly short service delays
    // (the 2^14..2^21 ps band real runs live in), a tail of long RTOs.
    struct Flow
    {
        sim::EventQueue& eq;
        Rng& rng;
        uint64_t& fired;
        uint64_t budget;
        void arm()
        {
            sim::TimePs delay =
                (rng.uniform(100) < 2)
                    ? sim::microseconds(50) // RTO-scale outlier
                    : sim::TimePs(1) << (14 + rng.uniform(8));
            eq.schedule_in(delay, [this] {
                ++fired;
                if (fired < budget)
                    arm();
            });
        }
    };
    std::vector<Flow> flows(population,
                            Flow{eq, rng, fired, total_events});

    uint64_t events0 = eq.executed_total();
    sim::EventQueue::WheelStats wheel0 = eq.wheel_stats();
    auto t0 = std::chrono::steady_clock::now();
    for (Flow& f : flows)
        f.arm();
    eq.run();
    auto t1 = std::chrono::steady_clock::now();

    sim::SimPerfSample out;
    out.name = name;
    out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
    out.events = eq.executed_total() - events0;
    out.packets = 0;
    out.sim_time = eq.now();
    out.take_wheel_stats(eq, wheel0);
    return out;
}

/**
 * Minimal reader for the BENCH_SIM_PERF.json this binary writes:
 * returns name -> events_per_sec. Not a general JSON parser — it
 * scans for the two keys the gate needs.
 */
std::map<std::string, double>
read_baseline(const std::string& path)
{
    std::map<std::string, double> out;
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        return out;
    }
    std::string line;
    while (std::getline(f, line)) {
        size_t n = line.find("\"name\": \"");
        if (n == std::string::npos)
            continue;
        n += 9;
        size_t e = line.find('"', n);
        std::string name = line.substr(n, e - n);
        size_t v = line.find("\"events_per_sec\": ");
        if (v == std::string::npos)
            continue;
        out[name] = std::atof(line.c_str() + v + 18);
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_SIM_PERF.json";
    std::string baseline_path;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--out=", 0) == 0)
            out_path = a.substr(6);
        else if (a.rfind("--baseline=", 0) == 0)
            baseline_path = a.substr(11);
        else if (a == "--quick")
            quick = true;
    }

    bench::banner("Simulator throughput (events/sec, packets/sec)",
                  "engine telemetry");

    auto fld_echo = [](const PktGenConfig& g) {
        return make_fld_echo(true, g);
    };
    auto cpu_echo = [](const PktGenConfig& g) {
        return make_cpu_echo(true, g);
    };

    sim::SimPerfReport report;
    report.add(sample_echo("fld_echo_remote_64B", fld_echo,
                           bench::open_loop_gen(64)));
    report.add(sample_echo("fld_echo_remote_256B", fld_echo,
                           bench::open_loop_gen(256)));
    report.add(sample_echo("fld_echo_remote_1500B", fld_echo,
                           bench::open_loop_gen(1500)));
    report.add(sample_echo("cpu_echo_remote_256B", cpu_echo,
                           bench::open_loop_gen(256)));
    report.add(sample_echo("fld_echo_imc_mix", fld_echo,
                           bench::imc_mix_gen()));
    if (!quick) {
        report.add(sample_fastpath("fastpath_10k", 10000));
        report.add(sample_timer_churn("churn_1M", 100000, 1000000));
    }

    TextTable t;
    t.header({"Scenario", "events/s", "pkts/s", "sim/wall", "wall s",
              "avg bkt", "cascades"});
    for (const sim::SimPerfSample& s : report.samples()) {
        t.row({s.name, strfmt("%.2fM", s.events_per_sec() / 1e6),
               strfmt("%.2fM", s.packets_per_sec() / 1e6),
               strfmt("%.4f", s.sim_time_ratio()),
               strfmt("%.3f", s.wall_sec),
               strfmt("%.1f", s.wheel.avg_bucket_occupancy()),
               strfmt("%llu",
                      (unsigned long long)s.wheel.cascades)});
    }
    t.print();

    if (!report.write_json(out_path)) {
        std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
        return 1;
    }
    bench::note("wrote " + out_path);

    if (!baseline_path.empty()) {
        std::map<std::string, double> base =
            read_baseline(baseline_path);
        if (base.empty()) {
            std::fprintf(stderr,
                         "baseline %s empty or unreadable\n",
                         baseline_path.c_str());
            return 1;
        }
        int regressions = 0;
        for (const sim::SimPerfSample& s : report.samples()) {
            auto it = base.find(s.name);
            if (it == base.end())
                continue; // new sample: no baseline yet
            double floor = it->second * 0.8; // >20% drop fails
            if (s.events_per_sec() < floor) {
                std::fprintf(stderr,
                             "REGRESSION %s: %.0f events/s < 80%% of "
                             "baseline %.0f\n",
                             s.name.c_str(), s.events_per_sec(),
                             it->second);
                ++regressions;
            }
        }
        if (regressions)
            return 1;
        bench::note("no events/sec regression vs " + baseline_path);
    }
    return 0;
}
