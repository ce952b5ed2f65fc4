/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries. Each
 * binary regenerates one table or figure of the paper; outputs print
 * the paper's reported value next to the reproduced one wherever the
 * paper gives a number. The extension benches also share one flag
 * parser and one JSON report with a baseline gate (Report, finish()).
 */
#ifndef FLD_BENCH_BENCH_UTIL_H
#define FLD_BENCH_BENCH_UTIL_H

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/scenarios.h"
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
    Flag(const char* name, std::string& text) : name(name), text(&text)
    {}
    Flag(const char* name, uint64_t& number)
        : name(name), number(&number)
    {}

    const char* name;
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
            std::fprintf(stderr, " [--%s=%s]", f.name,
                         f.text ? "PATH" : "N");
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
    /** A double, printed with %.17g so it reads back bit-exact. */
    void real(const std::string& name, double v, const std::string& unit,
              Gate gate = Gate::Exact)
    {
        rows_.push_back({name, strfmt("%.17g", v), unit, gate});
    }
    /** A simulated count. */
    void count(const std::string& name, uint64_t v,
               const std::string& unit = "count")
    {
        rows_.push_back({name, std::to_string(v), unit, Gate::Exact});
    }
    /** A 64-bit digest, in hex. */
    void hash(const std::string& name, uint64_t h)
    {
        rows_.push_back({name, strfmt("0x%016llx", (unsigned long long)h),
                         "hash", Gate::Exact});
    }

    const std::vector<Row>& rows() const { return rows_; }

  private:
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
 * compared. Baseline rows the run did not produce (a smaller sweep) are
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
 * line, and, when @p baseline is set, compare it (see compare()).
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
    for (const std::string& name : c.not_run)
        note("not run: " + name);
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
inline std::vector<std::vector<std::string>>
parallel_rows(size_t n, unsigned jobs,
              const std::function<std::vector<std::string>(size_t)>& fn)
{
    std::vector<std::vector<std::string>> rows(n);
    if (jobs <= 1) {
        for (size_t i = 0; i < n; ++i)
            rows[i] = fn(i);
        return rows;
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            rows[i] = fn(i);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < jobs && t < n; ++t)
        pool.emplace_back(worker);
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
    apps::PktGenConfig g;
    g.frame_size = frame;
    g.offered_gbps = gbps;
    g.flows = flows;
    return g;
}

/** Closed-loop generator with @p window outstanding packets. */
inline apps::PktGenConfig
closed_loop_gen(size_t frame, uint32_t window, bool measure_rtt = false)
{
    apps::PktGenConfig g;
    g.frame_size = frame;
    g.window = window;
    g.measure_rtt = measure_rtt;
    return g;
}

/** IMC-2010 mixed-size open-loop generator (§8.1.1 packet rates). */
inline apps::PktGenConfig
imc_mix_gen(uint32_t flows = 16, double gbps = kOpenLoopGbps)
{
    apps::PktGenConfig g;
    g.imc_mix = true;
    g.offered_gbps = gbps;
    g.flows = flows;
    return g;
}

/** Delivered goodput over a finished generator's measure window. */
inline double
measured_gbps(const apps::PacketGen& gen)
{
    return gen.rx_meter().gbps(gen.measure_start(), gen.measure_end());
}

/** Delivered packet rate over a finished generator's measure window. */
inline double
measured_mpps(const apps::PacketGen& gen)
{
    return gen.rx_meter().mpps(gen.measure_start(), gen.measure_end());
}

/** Build, run and measure one FLD-E echo exchange. */
inline double
run_fld_echo_gbps(bool remote, const apps::PktGenConfig& g,
                  sim::TimePs warmup, sim::TimePs duration,
                  apps::TestbedConfig tc = {})
{
    auto s = apps::make_fld_echo(remote, g, tc);
    s->gen->start(warmup, duration);
    s->tb->eq.run();
    return measured_gbps(*s->gen);
}

/** Build, run and measure one CPU-driver echo exchange. */
inline double
run_cpu_echo_gbps(bool remote, const apps::PktGenConfig& g,
                  sim::TimePs warmup, sim::TimePs duration,
                  apps::TestbedConfig tc = {})
{
    auto s = apps::make_cpu_echo(remote, g, tc);
    s->gen->start(warmup, duration);
    s->tb->eq.run();
    return measured_gbps(*s->gen);
}

} // namespace fld::bench

#endif // FLD_BENCH_BENCH_UTIL_H
