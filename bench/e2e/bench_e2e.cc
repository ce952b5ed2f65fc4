/**
 * @file
 * End-to-end benchmark runner: one workload per process.
 *
 *   bench_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
 *
 * The run repeats rounds until the time budget is spent, at least
 * three times. With --trace=0 a round sets the scenario up five times
 * and runs one plain episode, and the end-to-end metrics are printed:
 * the simulated ones from the episodes, setup_s as the median set-up,
 * wall_s as the fastest episode (interference from the rest of the
 * host only ever adds time to identical work). With --trace=1 a round
 * runs a sampled episode (the CPU-time sampler on) and a traced one
 * (sim::Tracer, stage joiner and probes on), and the per-layer metrics
 * are printed. Either way every episode of a seed must repeat the same
 * simulated results bit for bit.
 *
 * The last line of output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is non-zero when any output check failed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "modules.h"
#include "sampler.h"
#include "stages.h"
#include "workloads.h"

namespace fld::e2e {

namespace {

using Clock = std::chrono::steady_clock;

struct Metric
{
    std::string name;
    std::string unit;
};

const std::vector<Metric>&
end_to_end_metrics()
{
    static const std::vector<Metric> m = {
        {"sim_mops", "Mops/s"},     {"sim_gbps", "Gbps"},
        {"latency_p50_us", "us"},   {"latency_p99_us", "us"},
        {"latency_p999_us", "us"},  {"wall_s", "s"},
        {"setup_s", "s"},           {"peak_rss_mb", "MiB"}};
    return m;
}

const std::vector<Metric>&
layer_metrics()
{
    static const std::vector<Metric> m = [] {
        std::vector<Metric> v;
        for (std::string_view mod : kModules)
            v.push_back({"host_s." + std::string(mod), "s"});
        const std::vector<Metric> fixed = {
            {"probe.net.parse_ns", "ns"},
            {"probe.nic.pipeline_lookup_ns", "ns"},
            {"sim.events", "count"},
            {"sim.events_per_op", "count"},
            {"sim.events_per_host_s", "Mevents/s"},
            {"sim.wheel.avg_bucket", "count"},
            {"sim.wheel.cascaded_events", "count"},
            {"pcie.bytes_per_op", "B"},
            {"pcie.txns_per_op", "count"},
            {"pcie.fld.bytes_per_pkt.to_fld", "B"},
            {"pcie.fld.bytes_per_pkt.from_fld", "B"},
            {"pcie.fld.model_ratio.to_fld", "ratio"},
            {"pcie.fld.model_ratio.from_fld", "ratio"},
            {"nic.drops", "count"},
            {"nic.drop_ratio", "ratio"},
            {"nic.wire_rx_packets", "count"},
            {"fld.doorbells_per_pkt", "count"},
            {"fld.wqe_reads_per_pkt", "count"},
            {"fld.cqes_per_pkt", "count"},
            {"fld.tx_rejected", "count"},
            {"driver.gen.tx_backpressured", "count"},
            {"driver.fp.retransmits", "count"},
            {"driver.fp.dup_segments", "count"},
            {"driver.fp.rx_ring_stalls", "count"},
            {"driver.fp.backpressure", "count"},
            {"driver.fp.doorbells_per_op", "count"},
            {"accel.dropped_overload", "count"},
            {"accel.tx_failed", "count"},
            {"apps.rpc.worker_util", "ratio"},
            {"apps.rpc.tx_ring_full", "count"},
            {"apps.rpc.rejected", "count"}};
        v.insert(v.end(), fixed.begin(), fixed.end());
        for (std::string_view st : kStages)
            for (std::string_view d : kDirections)
                for (const char* q : {"p50_us", "p99_us"})
                    v.push_back({"stage." + std::string(st) + "." +
                                     std::string(d) + "." + q,
                                 "us"});
        v.push_back({"stage.coverage", "ratio"});
        v.push_back({"stage.unattributed_us", "us"});
        v.push_back({"trace.overhead_ratio", "ratio"});
        return v;
    }();
    return m;
}

/** Minimum latency samples behind a p99.9 with ten beyond it. */
constexpr uint64_t kMinLatencySamples = 10'000;
constexpr int kSetupsPerRound = 5;
constexpr size_t kMinRounds = 3;
constexpr double kMaxUnresolvedShare = 0.05;
constexpr double kMinStageCoverage = 0.99;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 30;
    bool traced = false;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** The output checks that failed. */
struct Verdict
{
    std::vector<std::string> failures;
    void check(bool ok, const std::string& why)
    {
        if (!ok)
            failures.push_back(why);
    }
    bool ok() const { return failures.empty(); }
};

void
check_sim(Verdict& v, const std::vector<Episode>& eps, const char* what)
{
    const SimResult& first = eps.front().sim;
    v.check(first.error.empty(), first.error);
    v.check(first.latency_samples >= kMinLatencySamples,
            "only " + std::to_string(first.latency_samples) +
                " latency samples (need " +
                std::to_string(kMinLatencySamples) + ")");
    for (const Episode& e : eps)
        if (!(e.sim == first)) {
            v.failures.push_back(std::string("simulated results differ "
                                             "between ") +
                                 what);
            break;
        }
}

std::string
json_number(double x)
{
    if (!std::isfinite(x))
        x = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

void
print_result(const Verdict& verdict, uint64_t attempted, uint64_t failed,
             const std::vector<Metric>& metrics,
             const std::map<std::string, double>& values)
{
    std::string out = "{\"correct\": ";
    out += verdict.ok() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics) {
        auto it = values.find(m.name);
        double v = it == values.end() ? 0.0 : it->second;
        out += first ? "" : ", ";
        out += "\"" + m.name + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void
print_table(const std::vector<Metric>& metrics,
            const std::map<std::string, double>& values)
{
    for (const Metric& m : metrics) {
        auto it = values.find(m.name);
        if (it == values.end())
            std::printf("  %-40s %14s\n", m.name.c_str(), "n/a");
        else
            std::printf("  %-40s %14.6g %s\n", m.name.c_str(), it->second,
                        m.unit.c_str());
    }
}

/** One round: set-ups, then one episode per mode. */
struct Round
{
    std::vector<Episode> episodes; ///< one per mode
    std::vector<double> setups;    ///< host seconds
};

/** Rounds until the budget is spent, at least kMinRounds. */
std::vector<Round>
run_rounds(const Workload& w, const Options& o, Clock::time_point start,
           const std::vector<Mode>& modes, int setups, Sampler* sampler)
{
    std::vector<Round> out;
    double round_s = 0;
    while (out.size() < kMinRounds ||
           seconds_since(start) + round_s <= o.seconds) {
        auto t0 = Clock::now();
        Round r;
        for (int i = 0; i < setups; ++i)
            r.setups.push_back(w.setup(o.seed));
        for (Mode m : modes)
            r.episodes.push_back(w.run(o.seed, m, sampler));
        out.push_back(std::move(r));
        round_s = seconds_since(t0);
    }
    return out;
}

std::vector<Episode>
episodes(const std::vector<Round>& rounds, size_t mode)
{
    std::vector<Episode> v;
    for (const Round& r : rounds)
        v.push_back(r.episodes[mode]);
    return v;
}

int
run(const Options& o)
{
    const Workload* w = find_workload(o.workload);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'; one of:",
                     o.workload.c_str());
        for (const Workload& x : workloads())
            std::fprintf(stderr, " %.*s", int(x.name.size()),
                         x.name.data());
        std::fprintf(stderr, "\n");
        return 2;
    }
    std::printf("workload %s  seed %" PRIu64 "  budget %.0f s  trace %d\n",
                o.workload.c_str(), o.seed, o.seconds, o.traced ? 1 : 0);
    auto start = Clock::now();

    Verdict verdict;
    std::map<std::string, double> values;
    uint64_t attempted = 0, failed = 0;
    auto tally = [&](const std::vector<Episode>& eps) {
        for (const Episode& e : eps) {
            attempted += e.sim.attempted;
            failed += e.sim.failed;
        }
    };

    if (!o.traced) {
        std::vector<Round> rounds = run_rounds(
            *w, o, start, {Mode::Plain}, kSetupsPerRound, nullptr);
        std::vector<Episode> eps = episodes(rounds, 0);
        check_sim(verdict, eps, "episodes");
        tally(eps);
        std::vector<double> walls, setups;
        for (const Round& rd : rounds) {
            walls.push_back(rd.episodes[0].wall_s);
            setups.insert(setups.end(), rd.setups.begin(), rd.setups.end());
        }
        const SimResult& r = eps.front().sim;
        values = {{"sim_mops", r.mops},
                  {"sim_gbps", r.gbps},
                  {"latency_p50_us", r.p50_us},
                  {"latency_p99_us", r.p99_us},
                  {"latency_p999_us", r.p999_us},
                  {"wall_s", *std::min_element(walls.begin(), walls.end())},
                  {"setup_s", median(setups)},
                  {"peak_rss_mb", peak_rss_mib()}};
        std::printf("%zu episodes, %zu set-ups, %" PRIu64
                    " latency samples, %" PRIu64 " events per episode\n"
                    "episode wall s:",
                    eps.size(), setups.size(), r.latency_samples, r.events);
        for (double x : walls)
            std::printf(" %.4f", x);
        std::printf("\n");
        print_table(end_to_end_metrics(), values);
    } else {
        Sampler sampler;
        std::vector<Round> rounds =
            run_rounds(*w, o, start, {Mode::Sampled, Mode::Traced}, 0,
                       &sampler);
        std::vector<Episode> sampled = episodes(rounds, 0);
        std::vector<Episode> traced = episodes(rounds, 1);
        std::vector<Episode> both = sampled;
        both.insert(both.end(), traced.begin(), traced.end());
        check_sim(verdict, both, "episodes, traced or not");
        tally(sampled);
        tally(traced);

        // Layer values: median over the episodes that observed them
        // (counters repeat exactly; host probes vary).
        std::map<std::string, std::vector<double>> seen;
        for (const Episode& e : both)
            for (const auto& [k, v] : e.layer)
                seen[k].push_back(v);
        for (const auto& [k, v] : seen)
            values[k] = median(v);

        // Host time per module: sample shares of the sampled
        // episodes' mean CPU time.
        std::vector<uintptr_t> pcs = sampler.samples();
        Symbolizer symbolizer;
        std::map<std::string, uint64_t> by_module =
            samples_by_module(pcs, symbolizer);
        double cpu = 0, wall = 0; // per sampled episode, mean
        for (const Episode& e : sampled) {
            cpu += e.cpu_s / double(sampled.size());
            wall += e.wall_s / double(sampled.size());
        }
        for (const auto& [m, n] : by_module)
            values["host_s." + m] =
                pcs.empty() ? 0.0 : cpu * double(n) / double(pcs.size());
        double unresolved =
            pcs.empty() ? 1.0
                        : double(by_module["unresolved"]) / double(pcs.size());
        verdict.check(unresolved <= kMaxUnresolvedShare,
                      "host_s.unresolved is " +
                          std::to_string(100 * unresolved) +
                          "% of samples (limit 5%)");
        if (auto it = values.find("stage.coverage"); it != values.end())
            verdict.check(it->second >= kMinStageCoverage,
                          "stage.coverage " + std::to_string(it->second) +
                              " below 0.99");
        // Each round's traced episode against its own sampled one, so
        // host-speed drift between rounds cancels.
        std::vector<double> ratios;
        for (const Round& rd : rounds)
            ratios.push_back(rd.episodes[1].wall_s / rd.episodes[0].wall_s);
        values["trace.overhead_ratio"] = median(ratios);

        for (const auto& [k, v] : values)
            if (std::none_of(layer_metrics().begin(), layer_metrics().end(),
                             [&](const Metric& m) { return m.name == k; }))
                verdict.failures.push_back("unlisted layer metric " + k);
        std::printf("%zu sampled + %zu traced episodes, %zu samples "
                    "(%" PRIu64 " lost), host_s sum %.4f s = %.1f%% of "
                    "sampled wall %.4f s\n",
                    sampled.size(), traced.size(), pcs.size(),
                    sampler.lost(), cpu, 100 * cpu / wall, wall);
        print_table(layer_metrics(), values);
    }

    for (const std::string& f : verdict.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("attempted %" PRIu64 "  failed %" PRIu64 "  %s\n", attempted,
                failed, verdict.ok() ? "correct" : "INCORRECT");
    print_result(verdict, attempted, failed,
                 o.traced ? layer_metrics() : end_to_end_metrics(), values);
    return verdict.ok() ? 0 : 1;
}

bool
parse(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string key = arg, val;
        if (size_t eq = arg.find('='); eq != std::string::npos) {
            key = arg.substr(0, eq);
            val = arg.substr(eq + 1);
        } else if (i + 1 < argc) {
            val = argv[++i];
        }
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 0);
        else if (key == "--seconds")
            o.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            o.traced = val == "1";
        else
            return false;
    }
    return !o.workload.empty() && o.seconds > 0;
}

} // namespace

} // namespace fld::e2e

int
main(int argc, char** argv)
{
    fld::e2e::Options o;
    if (!fld::e2e::parse(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: %s --workload=NAME [--seed=N] [--seconds=S] "
                     "[--trace=0|1]\n",
                     argv[0]);
        return 2;
    }
    return fld::e2e::run(o);
}
