/**
 * @file
 * Helpers behind bench_paper's rows: one flag parser, one JSON report
 * with a baseline gate (Report, finish()), a deterministic parallel
 * sweep, engine telemetry (run_sampled, engine_rows) and the canonical
 * echo workloads. bench_paper prints the paper's reported value next
 * to the reproduced one wherever the paper gives a number.
 */
#ifndef FLD_BENCH_BENCH_UTIL_H
#define FLD_BENCH_BENCH_UTIL_H

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/scenarios.h"
#include "net/headers.h"
#include "util/strings.h"
#include "util/table.h"

namespace fld::bench {

inline void
banner(const std::string& what, const std::string& paper_ref)
{
    std::printf("\n=== %s (%s) ===\n", what.c_str(), paper_ref.c_str());
}

inline void
note(const std::string& text)
{
    std::printf("  %s\n", text.c_str());
}

/** One `--name=value` command-line flag bound to a bench variable. */
struct Flag
{
    /** A text flag; @p value names it in the usage line (`ROW`). */
    Flag(const char* name, std::string& text, const char* value)
        : name(name), value(value), text(&text)
    {}
    Flag(const char* name, uint64_t& number)
        : name(name), value("N"), number(&number)
    {}

    const char* name;
    const char* value;
    std::string* text = nullptr;
    uint64_t* number = nullptr; ///< parsed with parse_u64
};

/**
 * Parse every argument as one of @p flags. An unknown flag or a number
 * parse_u64 rejects prints the usage line and exits 2, so a typo never
 * runs an empty or different sweep.
 */
inline void
parse_flags(int argc, char** argv, std::initializer_list<Flag> flags)
{
    for (int i = 1; i < argc; ++i) {
        const Flag* hit = nullptr;
        const char* value = nullptr;
        for (const Flag& f : flags) {
            std::string prefix = std::string("--") + f.name + "=";
            if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
                hit = &f;
                value = argv[i] + prefix.size();
            }
        }
        if (hit && hit->text) {
            *hit->text = value;
            continue;
        }
        if (hit && parse_u64(value, *hit->number))
            continue;
        std::fprintf(stderr, "%s: %s\nusage: %s", hit ? "bad number"
                                                     : "unknown option",
                     argv[i], argv[0]);
        for (const Flag& f : flags)
            std::fprintf(stderr, " [--%s=%s]", f.name, f.value);
        std::fprintf(stderr, "\n");
        std::exit(2);
    }
}

// ---------------------------------------------------------------------
// Bench reports: one row per named quantity, written as JSON with one
// row per line (so the baseline reader is a line scan) and compared
// against a committed baseline by finish().
// ---------------------------------------------------------------------

/** How finish() checks a row against a baseline. */
enum class Gate
{
    Exact, ///< simulated quantity or hash: any difference fails
    None,  ///< wall-clock quantity: written, never compared
};

struct Row
{
    std::string name; ///< no `"` or `\`: written unescaped
    std::string value; ///< %.17g double, decimal count or 0x hex hash
    std::string unit;
    Gate gate = Gate::Exact;
};

class Report
{
  public:
    /** Names added from now on read `<scope>.<name>` (empty: bare). */
    void scope(const std::string& scope)
    {
        prefix_ = scope.empty() ? scope : scope + ".";
    }
    /** A double, printed with %.17g so it reads back bit-exact. */
    void real(const std::string& name, double v, const std::string& unit,
              Gate gate = Gate::Exact)
    {
        add(name, strfmt("%.17g", v), unit, gate);
    }
    /** A simulated count. */
    void count(const std::string& name, uint64_t v,
               const std::string& unit = "count")
    {
        add(name, std::to_string(v), unit, Gate::Exact);
    }
    /** A 64-bit digest, in hex. */
    void hash(const std::string& name, uint64_t h)
    {
        add(name, strfmt("0x%016llx", (unsigned long long)h), "hash",
            Gate::Exact);
    }

    const std::vector<Row>& rows() const { return rows_; }

  private:
    void add(const std::string& name, std::string value,
             const std::string& unit, Gate gate)
    {
        rows_.push_back({prefix_ + name, std::move(value), unit, gate});
    }

    std::string prefix_;
    std::vector<Row> rows_;
};

/** Read the rows of a report file finish() wrote. False when the file
 *  cannot be read or a row line is malformed. */
inline bool
read_report(const std::string& path, std::vector<Row>& rows)
{
    std::ifstream f(path);
    if (!f)
        return false;
    auto field = [](const std::string& line, const char* key,
                    std::string& out) {
        std::string tag = std::string("\"") + key + "\": \"";
        size_t b = line.find(tag);
        if (b == std::string::npos)
            return false;
        b += tag.size();
        size_t e = line.find('"', b);
        if (e == std::string::npos)
            return false;
        out = line.substr(b, e - b);
        return true;
    };
    std::string line, gate;
    while (std::getline(f, line)) {
        if (line.find("\"name\"") == std::string::npos)
            continue;
        Row r;
        if (!field(line, "name", r.name) ||
            !field(line, "value", r.value) ||
            !field(line, "unit", r.unit) || !field(line, "gate", gate) ||
            (gate != "exact" && gate != "none"))
            return false;
        r.gate = gate == "exact" ? Gate::Exact : Gate::None;
        rows.push_back(std::move(r));
    }
    return true;
}

struct Comparison
{
    std::vector<std::string> failures; ///< one line per failing row
    std::vector<std::string> not_run;  ///< baseline rows this run lacks
};

/**
 * Compare a run's rows against a baseline's. An `exact` run row fails
 * when its value differs from the baseline's or the baseline lacks it,
 * and a run with no `exact` row fails as a whole; `none` rows are never
 * compared. Baseline rows the run did not produce (an `--only` run) are
 * listed as not run.
 */
inline Comparison
compare(const std::vector<Row>& run, const std::vector<Row>& baseline)
{
    Comparison c;
    std::map<std::string, const Row*> base;
    std::set<std::string> ran;
    bool any_exact = false;
    for (const Row& b : baseline)
        base[b.name] = &b;
    for (const Row& r : run) {
        ran.insert(r.name);
        if (r.gate != Gate::Exact)
            continue;
        any_exact = true;
        auto it = base.find(r.name);
        if (it == base.end())
            c.failures.push_back(r.name + ": missing from the baseline");
        else if (it->second->value != r.value)
            c.failures.push_back(r.name + ": " + r.value +
                                 " != baseline " + it->second->value);
    }
    if (!any_exact)
        c.failures.push_back("the run produced no exact rows");
    for (const Row& b : baseline)
        if (!ran.count(b.name))
            c.not_run.push_back(b.name);
    return c;
}

/**
 * Write @p report to @p out as {"rows": [...]}, one row object per
 * line, and, when @p baseline is set, compare it (see compare()),
 * printing how many baseline rows were not run in one line.
 * Returns the bench's exit code: 0, or 1 when the file cannot be
 * written or read or an exact row fails, naming the row.
 */
inline int
finish(const Report& report, const std::string& out,
       const std::string& baseline)
{
    std::ofstream f(out);
    f << "{\n  \"rows\": [";
    for (size_t i = 0; i < report.rows().size(); ++i) {
        const Row& r = report.rows()[i];
        f << (i ? ",\n" : "\n") << "    {\"name\": \"" << r.name
          << "\", \"value\": \"" << r.value << "\", \"unit\": \"" << r.unit
          << "\", \"gate\": \"" << (r.gate == Gate::Exact ? "exact" : "none")
          << "\"}";
    }
    f << "\n  ]\n}\n";
    if (!f.flush()) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    note("wrote " + out);
    if (baseline.empty())
        return 0;
    std::vector<Row> base;
    if (!read_report(baseline, base)) {
        std::fprintf(stderr, "cannot read baseline %s\n",
                     baseline.c_str());
        return 1;
    }
    Comparison c = compare(report.rows(), base);
    if (!c.not_run.empty())
        note(strfmt("%zu baseline rows not run", c.not_run.size()));
    for (const std::string& why : c.failures)
        std::fprintf(stderr, "BASELINE MISMATCH %s\n", why.c_str());
    if (!c.failures.empty())
        return 1;
    note("every exact row matches " + baseline);
    return 0;
}

/**
 * Evaluate @p fn(i) for i in [0, n) across @p jobs worker threads and
 * return the results in index order, so a parallel sweep prints the
 * same table as a serial one. Each fn(i) must be self-contained (its
 * own testbed/EventQueue); the per-thread Tracer slot keeps traced
 * rows from interfering. Rows are claimed from an atomic counter, so
 * results are deterministic for any jobs value — only wall-clock
 * completion order varies.
 */
template <typename Fn>
auto
parallel_rows(size_t n, unsigned jobs, const Fn& fn)
    -> std::vector<decltype(fn(size_t(0)))>
{
    std::vector<decltype(fn(size_t(0)))> rows(n);
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next++; i < n; i = next++)
            rows[i] = fn(i);
    };
    // The calling thread is one of the workers: jobs <= 1 runs serially.
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < jobs && t < n; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto& th : pool)
        th.join();
    return rows;
}

// ---------------------------------------------------------------------
// Canonical workload/config builders. These used to be copy-pasted in
// every bench binary; they are also the scenario fuzzer's default-
// config base, so the randomized runs start from the same calibrated
// setup the paper reproductions use.
// ---------------------------------------------------------------------

/** Open-loop offered rate used across benches: just past the 25 GbE
 *  line rate, so the device under test is the bottleneck. */
constexpr double kOpenLoopGbps = 26.0;

/** testpmd-style open-loop generator at @p gbps offered load. */
inline apps::PktGenConfig
open_loop_gen(size_t frame, double gbps = kOpenLoopGbps,
              uint32_t flows = 1)
{
    return {.frame_size = frame, .flows = flows, .offered_gbps = gbps};
}

/** Closed-loop generator with @p window outstanding packets. */
inline apps::PktGenConfig
closed_loop_gen(size_t frame, uint32_t window, bool measure_rtt = false)
{
    return {.frame_size = frame, .window = window, .measure_rtt = measure_rtt};
}

/** IMC-2010 mixed-size open-loop generator (§8.1.1 packet rates). */
inline apps::PktGenConfig
imc_mix_gen(uint32_t flows = 16, double gbps = kOpenLoopGbps)
{
    return {.imc_mix = true, .flows = flows, .offered_gbps = gbps};
}

/** Delivered goodput over a finished generator's measure window. */
inline double
measured_gbps(const apps::PacketGen& gen)
{
    return gen.rx_meter().gbps(gen.measure_start(), gen.measure_end());
}

// ---------------------------------------------------------------------
// Engine telemetry: how much work the discrete-event engine did for a
// run (exact: the event stream is deterministic) and how fast the host
// executed it (wall-clock: never compared).
// ---------------------------------------------------------------------

using WheelStats = sim::EventQueue::WheelStats;

/** What the engine did over one run. */
struct EngineSample
{
    double wall_sec = 0;      ///< host seconds spent inside the run
    uint64_t events = 0;      ///< engine events executed during the run
    uint64_t packets = 0;     ///< packets delivered during the run
    uint64_t echoes = 0;      ///< echoes the generator got back in all
    uint64_t parses = 0;      ///< net::parse calls the run made
    sim::TimePs sim_time = 0; ///< simulated time the run advanced
    WheelStats wheel; ///< counters over the run (max_bucket: lifetime)
};

/** Run @p eq to completion, sampling the engine and this thread's
 *  parse counter around it (packets and echoes are left to the
 *  caller). */
inline EngineSample
run_sampled(sim::EventQueue& eq)
{
    uint64_t parses0 = net::parse_count();
    uint64_t events0 = eq.executed_total();
    sim::TimePs sim0 = eq.now();
    WheelStats w0 = eq.wheel_stats();
    auto t0 = std::chrono::steady_clock::now();
    eq.run();
    EngineSample s;
    s.wall_sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    s.events = eq.executed_total() - events0;
    s.parses = net::parse_count() - parses0;
    s.sim_time = eq.now() - sim0;
    const WheelStats& w1 = eq.wheel_stats();
    WheelStats& w = s.wheel;
    w.bucket_drains = w1.bucket_drains - w0.bucket_drains;
    w.drained_events = w1.drained_events - w0.drained_events;
    w.max_bucket = w1.max_bucket;
    w.cascades = w1.cascades - w0.cascades;
    w.cascaded_events = w1.cascaded_events - w0.cascaded_events;
    w.overflow_filed = w1.overflow_filed - w0.overflow_filed;
    return s;
}

/** Add @p s to @p report under `<point>.`: engine counters as exact
 *  rows, host seconds and events/sec as ungated ones. */
inline void
engine_rows(Report& report, const std::string& point, const EngineSample& s)
{
    std::string p = point + ".";
    report.count(p + "events", s.events, "events");
    report.count(p + "packets", s.packets, "packets");
    report.real(p + "sim_sec", sim::to_sec(s.sim_time), "s");
    report.count(p + "bucket_drains", s.wheel.bucket_drains);
    report.real(p + "avg_bucket", s.wheel.avg_bucket_occupancy(), "events");
    report.count(p + "max_bucket", s.wheel.max_bucket, "events");
    report.count(p + "cascades", s.wheel.cascades);
    report.count(p + "cascaded_events", s.wheel.cascaded_events, "events");
    report.count(p + "overflow_filed", s.wheel.overflow_filed, "events");
    report.real(p + "wall_sec", s.wall_sec, "s", Gate::None);
    report.real(p + "events_per_sec", double(s.events) / s.wall_sec,
                "1/s", Gate::None);
}

/**
 * Builds one echo exchange, FLD-E (@p fld) or CPU driver, sends for
 * @p warmup plus @p duration, drains the testbed and returns
 * @p measure(scenario). @p measure takes either scenario type. When
 * @p engine is set it receives the engine telemetry of the run.
 */
template <typename Measure>
auto
run_echo(bool fld, bool remote, const apps::PktGenConfig& g,
         sim::TimePs warmup, sim::TimePs duration, Measure measure,
         apps::TestbedConfig tc = {}, EngineSample* engine = nullptr)
{
    auto run = [&](auto s) {
        s->gen->start(warmup, duration);
        EngineSample e = run_sampled(s->tb->eq);
        e.packets = s->gen->rx_meter().packets();
        e.echoes = s->gen->rx_count();
        if (engine)
            *engine = e;
        return measure(*s);
    };
    if (fld)
        return run(apps::make_fld_echo(remote, g, tc));
    return run(apps::make_cpu_echo(remote, g, tc));
}

/** run_echo's measure for delivered goodput. */
inline constexpr auto echo_gbps = [](const auto& s) {
    return measured_gbps(*s.gen);
};

} // namespace fld::bench

#endif // FLD_BENCH_BENCH_UTIL_H
