/**
 * @file
 * fld_fuzz — differential scenario fuzzer CLI.
 *
 * Sweeps 64-bit seeds of one fuzz dimension. Each row of the dimension
 * table (apps/fuzz_dimension.h) supplies its flag, the forcing that
 * turns a seed into its scenario, its shrink passes and its judge; this
 * file only parses flags from the table and drives the chosen row
 * through one path: the parallel sweep (apps::run_sweep), then, on the
 * lowest failing seed, greedy shrinking and replayable artifacts. A
 * new dimension is one row in that table, not code here.
 *
 * Usage (run with a bad argument to print the table's rows):
 *   fld_fuzz [--<dimension>=N] [--seed0=S] [--budget=T[s]] [--jobs=N]
 *            [--replay=SEED] [--artifacts=DIR] [--no-trace]
 *
 *   --<dimension>=N sweep N seeds of that row (at most one; default
 *                   --seeds=100, the natural mix)
 *   --seed0=S       first seed (default 1)
 *   --budget=T      stop after T wall-clock seconds (e.g. 120s);
 *                   overrides N with "as many as fit"
 *   --jobs=N        worker threads (default 1, at most 1024); any N
 *                   yields the same verdict and artifacts (see
 *                   apps/fuzz_sweep.h)
 *   --replay=SEED   run exactly one seed of the dimension and print its
 *                   transcript
 *   --artifacts=DIR write failing_seed.txt / minimized_scenario.txt /
 *                   transcript.txt there on failure (default ".")
 *   --no-trace      skip trace recording (faster soak)
 *
 * Exit code 0 = all seeds clean, 1 = a failure was found (artifacts
 * written), 2 = bad usage (unknown flag, unparsable number, or more
 * than one dimension flag).
 */
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "apps/fuzz_dimension.h"
#include "apps/fuzz_runner.h"
#include "apps/fuzz_sweep.h"
#include "sim/fuzz.h"
#include "util/strings.h"

using namespace fld;

namespace {

struct CliOptions
{
    const apps::FuzzDimension* dim = nullptr; ///< the --<name>=N row
    uint64_t seeds = 100;
    uint64_t seed0 = 1;
    double budget_sec = 0; ///< 0 = no time budget
    unsigned jobs = 1;
    bool replay = false;
    uint64_t replay_seed = 0;
    std::string artifacts = ".";
    bool trace = true;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: fld_fuzz [--<dimension>=N] [--seed0=S] "
                 "[--budget=T[s]] [--jobs=N]\n"
                 "                [--replay=SEED] [--artifacts=DIR] "
                 "[--no-trace]\n"
                 "dimensions (at most one):\n");
    for (const apps::FuzzDimension& d : apps::fuzz_dimensions())
        std::fprintf(stderr, "  --%s=N\n      %s\n", d.name, d.help);
}

/** Seconds, with an optional trailing `s`. */
bool
parse_seconds(const char* v, double& out)
{
    char* end = nullptr;
    out = std::strtod(v, &end);
    if (end != v && *end == 's')
        ++end;
    return std::isdigit((unsigned char)v[0]) && *end == '\0' &&
           std::isfinite(out);
}

bool
parse_args(int argc, char** argv, CliOptions& o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const std::string& prefix) -> const char* {
            return a.rfind(prefix, 0) == 0 ? a.c_str() + prefix.size()
                                           : nullptr;
        };
        const apps::FuzzDimension* dim = nullptr;
        const char* count = nullptr;
        for (const apps::FuzzDimension& d : apps::fuzz_dimensions())
            if (const char* v = val("--" + std::string(d.name) + "=")) {
                dim = &d;
                count = v;
            }
        bool ok = true;
        if (dim) {
            if (o.dim) {
                std::fprintf(stderr, "more than one dimension: --%s, %s\n",
                             o.dim->name, a.c_str());
                return false;
            }
            o.dim = dim;
            ok = parse_u64(count, o.seeds);
        } else if (const char* v = val("--seed0=")) {
            ok = parse_u64(v, o.seed0);
        } else if (const char* v = val("--budget=")) {
            ok = parse_seconds(v, o.budget_sec);
        } else if (const char* v = val("--jobs=")) {
            uint64_t jobs = 0;
            ok = parse_u64(v, jobs) && jobs <= 1024;
            o.jobs = unsigned(jobs);
        } else if (const char* v = val("--replay=")) {
            o.replay = true;
            ok = parse_u64(v, o.replay_seed);
        } else if (const char* v = val("--artifacts=")) {
            o.artifacts = v;
        } else if (a == "--no-trace") {
            o.trace = false;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            return false;
        }
        if (!ok) {
            std::fprintf(stderr, "bad number: %s\n", a.c_str());
            return false;
        }
    }
    if (!o.dim)
        o.dim = &apps::fuzz_dimensions()[0];
    return true;
}

void
write_file(const std::string& path, const std::string& content)
{
    std::ofstream f(path);
    f << content;
}

int
report_failure(const CliOptions& o, apps::FuzzRunner& runner,
               const sim::FuzzScenario& failing,
               const apps::FuzzVerdict& verdict)
{
    const apps::FuzzDimension& dim = *o.dim;
    std::printf("\nFAILURE at seed %llu (--%s): %s\n",
                (unsigned long long)failing.seed, dim.name,
                verdict.summary.c_str());
    for (const std::string& why : verdict.violations)
        std::printf("  %s\n", why.c_str());

    std::string transcript = verdict.transcript;
    std::string written = "failing_seed.txt, transcript.txt";
    auto passes = dim.shrink_passes(failing);
    if (!passes.empty()) {
        std::printf("shrinking...\n");
        sim::ScenarioShrinker shrinker(
            [&](const sim::FuzzScenario& s) {
                return !dim.run(runner, s).ok;
            },
            passes);
        sim::ShrinkResult shrunk = shrinker.shrink(failing);
        apps::FuzzVerdict mv = dim.run(runner, shrunk.scenario);
        std::printf("shrunk after %u runs (%u accepted): %s\n",
                    shrunk.predicate_runs, shrunk.accepted_mutations,
                    mv.summary.c_str());
        write_file(o.artifacts + "/minimized_scenario.txt",
                   shrunk.scenario.to_string());
        transcript = mv.transcript;
        written += ", minimized_scenario.txt";
    }
    write_file(o.artifacts + "/failing_seed.txt",
               std::to_string(failing.seed) + "\n");
    write_file(o.artifacts + "/transcript.txt", transcript);
    std::printf("artifacts written to %s (%s)\n", o.artifacts.c_str(),
                written.c_str());
    std::printf("replay with: fld_fuzz --%s=1 --seed0=%llu\n", dim.name,
                (unsigned long long)failing.seed);
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    CliOptions o;
    if (!parse_args(argc, argv, o)) {
        usage();
        return 2;
    }
    const apps::FuzzDimension& dim = *o.dim;
    apps::FuzzRunner runner(apps::FuzzRunOptions{.check_trace = o.trace});

    if (o.replay) {
        sim::FuzzScenario s = dim.scenario(o.replay_seed);
        apps::FuzzVerdict v = dim.run(runner, s);
        std::printf("%s", v.transcript.c_str());
        std::printf("transcript_hash = %016llx\n",
                    (unsigned long long)v.transcript_hash);
        return v.ok ? 0 : report_failure(o, runner, s, v);
    }

    auto start = std::chrono::steady_clock::now();
    const std::string total = o.budget_sec > 0
                                  ? strfmt("%.0fs", o.budget_sec)
                                  : std::to_string(o.seeds);
    apps::SweepOptions sweep;
    sweep.seed0 = o.seed0;
    sweep.seeds = o.seeds;
    sweep.budget_sec = o.budget_sec;
    sweep.jobs = o.jobs;
    sweep.run.check_trace = o.trace;
    sweep.on_result = [&](uint64_t done, uint64_t seed,
                          const sim::FuzzScenario&,
                          const apps::FuzzVerdict& v) {
        if (v.ok && (done % 25 == 0 ||
                     (o.budget_sec == 0 && done == o.seeds)))
            std::printf("[%llu/%s %s] seed %llu ok: %s\n",
                        (unsigned long long)done, total.c_str(), dim.name,
                        (unsigned long long)seed, v.summary.c_str());
    };

    apps::SweepResult result = apps::run_sweep(sweep, dim);
    if (result.found_failure)
        return report_failure(o, runner, result.failing_scenario,
                              result.failing_verdict);
    std::printf("all %llu seeds clean (--%s, %.1fs, jobs=%u)\n",
                (unsigned long long)result.ran, dim.name,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count(),
                o.jobs < 1 ? 1u : o.jobs);
    return 0;
}
