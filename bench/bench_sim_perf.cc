/**
 * @file
 * Simulator-throughput telemetry: measures how fast the discrete-event
 * engine executes the paper's echo-throughput scenarios plus two
 * scheduler-stress points (a 10k-connection fast-path storm and a
 * million-event timer churn) and writes them to BENCH_SIM_PERF.json as
 * a bench::Report.
 *
 * This intentionally measures the *simulator*, not the simulated
 * hardware: the Gbps tables live in bench_paper (figure7b); this file answers
 * "how long does reproducing them take, and is the engine regressing".
 * Per-sample wheel telemetry (bucket occupancy, cascades) shows how
 * the timing-wheel engine is spending its time.
 *
 * Each sample's engine counters (events, packets, simulated time,
 * wheel stats) are exact rows: --baseline=PATH fails (exit 1) when any
 * differs from bench/baselines/BENCH_SIM_PERF.json, which catches an
 * engine or model change that moves the event stream — the CI
 * perf-smoke gate. Host seconds and events/sec are written but never
 * compared: they depend on the machine. The fastpath_10k point also
 * exits 1 when the harness oracles trip, before any JSON is written.
 *
 * Usage: bench_sim_perf [--out=PATH] [--baseline=PATH]
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "apps/fastpath_harness.h"
#include "apps/scenarios.h"
#include "bench/bench_util.h"
#include "util/rng.h"

using namespace fld;
using namespace fld::apps;

namespace {

constexpr sim::TimePs kWarmup = sim::milliseconds(1);
constexpr sim::TimePs kDuration = sim::milliseconds(4);

using WheelStats = sim::EventQueue::WheelStats;

/** One timed run: host seconds around it and the engine's counters. */
struct Sample
{
    std::string name;      ///< e.g. "fld_echo_remote_256B"
    double wall_sec = 0;   ///< host seconds spent inside the run
    uint64_t events = 0;   ///< engine events executed during the run
    uint64_t packets = 0;  ///< packets delivered during the run
    sim::TimePs sim_time = 0; ///< simulated time the run advanced
    /** Wheel counters over the run; none where a harness owns the
     *  queue. */
    std::optional<WheelStats> wheel;
};

/** @p eq's wheel counters since @p start (max_bucket: lifetime max). */
WheelStats
wheel_since(const sim::EventQueue& eq, const WheelStats& start)
{
    const WheelStats& end = eq.wheel_stats();
    WheelStats w;
    w.bucket_drains = end.bucket_drains - start.bucket_drains;
    w.drained_events = end.drained_events - start.drained_events;
    w.max_bucket = end.max_bucket;
    w.cascades = end.cascades - start.cascades;
    w.cascaded_events = end.cascaded_events - start.cascaded_events;
    w.overflow_filed = end.overflow_filed - start.overflow_filed;
    return w;
}

/** Run one echo scenario to completion, sampling engine telemetry. */
template <class MakeScenario>
Sample
sample_echo(const std::string& name, MakeScenario&& make,
            const PktGenConfig& g)
{
    auto s = make(g);
    s->gen->start(kWarmup, kDuration);
    auto& eq = s->tb->eq;
    uint64_t events0 = eq.executed_total();
    sim::TimePs sim0 = eq.now();
    WheelStats wheel0 = eq.wheel_stats();
    auto t0 = std::chrono::steady_clock::now();
    eq.run();
    auto t1 = std::chrono::steady_clock::now();

    Sample out;
    out.name = name;
    out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
    out.events = eq.executed_total() - events0;
    out.packets = s->gen->rx_meter().packets();
    out.sim_time = eq.now() - sim0;
    out.wheel = wheel_since(eq, wheel0);
    return out;
}

/**
 * Fast-path scheduler stress: the 10k-connection open/serve/close
 * storm from bench_fastpath, FLD-served. Tens of thousands of
 * concurrent per-connection RTO timers plus the full NIC/PCIe event
 * plumbing — the timer-heavy counterpoint to the echo points.
 */
Sample
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

    Sample out;
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
Sample
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
    WheelStats wheel0 = eq.wheel_stats();
    auto t0 = std::chrono::steady_clock::now();
    for (Flow& f : flows)
        f.arm();
    eq.run();
    auto t1 = std::chrono::steady_clock::now();

    Sample out;
    out.name = name;
    out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
    out.events = eq.executed_total() - events0;
    out.sim_time = eq.now();
    out.wheel = wheel_since(eq, wheel0);
    return out;
}

/** Add @p s to the report: engine counters as exact rows, host time
 *  as ungated ones. */
void
add_rows(bench::Report& report, const Sample& s)
{
    std::string p = s.name + ".";
    report.count(p + "events", s.events, "events");
    report.count(p + "packets", s.packets, "packets");
    report.real(p + "sim_sec", sim::to_sec(s.sim_time), "s");
    if (s.wheel) {
        report.count(p + "bucket_drains", s.wheel->bucket_drains);
        report.real(p + "avg_bucket", s.wheel->avg_bucket_occupancy(),
                    "events");
        report.count(p + "max_bucket", s.wheel->max_bucket, "events");
        report.count(p + "cascades", s.wheel->cascades);
        report.count(p + "cascaded_events", s.wheel->cascaded_events,
                     "events");
        report.count(p + "overflow_filed", s.wheel->overflow_filed,
                     "events");
    }
    report.real(p + "wall_sec", s.wall_sec, "s", bench::Gate::None);
    report.real(p + "events_per_sec", double(s.events) / s.wall_sec,
                "1/s", bench::Gate::None);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_SIM_PERF.json", baseline;
    bench::parse_flags(argc, argv,
                       {{"out", out}, {"baseline", baseline}});

    bench::banner("Simulator throughput (events/sec, packets/sec)",
                  "engine telemetry");

    auto fld_echo = [](const PktGenConfig& g) {
        return make_fld_echo(true, g);
    };
    auto cpu_echo = [](const PktGenConfig& g) {
        return make_cpu_echo(true, g);
    };

    const std::vector<Sample> samples = {
        sample_echo("fld_echo_remote_64B", fld_echo,
                    bench::open_loop_gen(64)),
        sample_echo("fld_echo_remote_256B", fld_echo,
                    bench::open_loop_gen(256)),
        sample_echo("fld_echo_remote_1500B", fld_echo,
                    bench::open_loop_gen(1500)),
        sample_echo("cpu_echo_remote_256B", cpu_echo,
                    bench::open_loop_gen(256)),
        sample_echo("fld_echo_imc_mix", fld_echo, bench::imc_mix_gen()),
        sample_fastpath("fastpath_10k", 10000),
        sample_timer_churn("churn_1M", 100000, 1000000),
    };

    bench::Report report;
    TextTable t;
    t.header({"Scenario", "events/s", "pkts/s", "sim/wall", "wall s",
              "avg bkt", "cascades"});
    for (const Sample& s : samples) {
        add_rows(report, s);
        t.row({s.name, strfmt("%.2fM", s.events / s.wall_sec / 1e6),
               strfmt("%.2fM", s.packets / s.wall_sec / 1e6),
               strfmt("%.4f", sim::to_sec(s.sim_time) / s.wall_sec),
               strfmt("%.3f", s.wall_sec),
               s.wheel ? strfmt("%.1f", s.wheel->avg_bucket_occupancy())
                       : "-",
               s.wheel ? strfmt("%llu",
                                (unsigned long long)s.wheel->cascades)
                       : "-"});
    }
    t.print();
    return bench::finish(report, out, baseline);
}
