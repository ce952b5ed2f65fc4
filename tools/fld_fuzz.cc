/**
 * @file
 * fld_fuzz — differential scenario fuzzer CLI.
 *
 * Walks 64-bit seeds, materializes each into a randomized testbed +
 * workload + fault plan (sim::ScenarioFuzzer), runs it through the
 * four oracles (apps::FuzzRunner: differential equivalence, trace
 * invariants, exactly-once, conservation) and, on the first failure,
 * greedily shrinks the scenario and writes replayable artifacts.
 *
 * Usage:
 *   fld_fuzz [--seeds=N] [--seed0=S] [--budget=120s] [--jobs=N]
 *            [--replay=SEED] [--artifacts=DIR] [--no-trace]
 *            [--churn=N] [--conn=N] [--rpc=N] [--pipeline=N]
 *
 *   --churn=N       control-plane mode: N seeds of randomized
 *                   many-tenant churn scenarios (sim::ChurnGen)
 *                   through the ChurnHarness oracles (shadow map,
 *                   stat conservation, budget/model reconciliation,
 *                   fault rejection) instead of datapath scenarios
 *   --conn=N        connection-workload mode: N seeds, each forced to
 *                   FuzzMode::ConnServe (every seed carries valid conn
 *                   draws), run FLD-served vs CPU-served through the
 *                   fastpath harness oracles; failures shrink and
 *                   write artifacts exactly like datapath mode
 *   --rpc=N         RPC-workload mode: N seeds, each forced to
 *                   FuzzMode::RpcServe (every seed carries valid rpc
 *                   draws), run FLD-served vs CPU-served through the
 *                   RPC harness; the differential oracle diffs
 *                   per-request response digests across the modes
 *   --pipeline=N    pipeline-program mode: N seeds, each forced to
 *                   FuzzMode::EthEcho with a random decoration program
 *                   (every seed carries valid pipeline draws) spliced
 *                   into the echo steering; FLD vs CPU differential
 *                   plus all four oracle families judge the program
 *   --seeds=N       run N consecutive seeds (default 100)
 *   --seed0=S       first seed (default 1)
 *   --budget=T      stop after T wall-clock seconds (e.g. 120s);
 *                   overrides --seeds with "as many as fit"
 *   --jobs=N        worker threads (default 1); any N yields the same
 *                   verdict and artifacts (see apps/fuzz_sweep.h)
 *   --replay=SEED   run exactly one seed and print its transcript
 *   --artifacts=DIR write failing_seed.txt / minimized_scenario.txt /
 *                   transcript.txt there on failure (default ".")
 *   --no-trace      skip trace recording (faster soak)
 *
 * Exit code 0 = all seeds clean, 1 = a failure was found (artifacts
 * written), 2 = bad usage.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "apps/churn_harness.h"
#include "apps/fuzz_runner.h"
#include "apps/fuzz_sweep.h"
#include "bench/bench_util.h"
#include "sim/fuzz.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace fld;

namespace {

struct CliOptions
{
    uint64_t seeds = 100;
    uint64_t seed0 = 1;
    double budget_sec = 0; ///< 0 = no time budget
    unsigned jobs = 1;
    bool replay = false;
    uint64_t replay_seed = 0;
    std::string artifacts = ".";
    bool trace = true;
    uint64_t churn = 0; ///< >0: churn mode, N seeds
    uint64_t conn = 0;  ///< >0: connection-workload mode, N seeds
    uint64_t rpc = 0;   ///< >0: RPC-workload mode, N seeds
    uint64_t pipeline = 0; ///< >0: pipeline-program mode, N seeds
};

bool
parse_args(int argc, char** argv, CliOptions& o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char* prefix) -> const char* {
            size_t n = std::string(prefix).size();
            return a.rfind(prefix, 0) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char* v = val("--seeds="))
            o.seeds = std::strtoull(v, nullptr, 0);
        else if (const char* v = val("--seed0="))
            o.seed0 = std::strtoull(v, nullptr, 0);
        else if (const char* v = val("--budget="))
            o.budget_sec = std::strtod(v, nullptr); // "120s" parses as 120
        else if (const char* v = val("--jobs="))
            o.jobs = unsigned(std::strtoul(v, nullptr, 0));
        else if (const char* v = val("--replay=")) {
            o.replay = true;
            o.replay_seed = std::strtoull(v, nullptr, 0);
        } else if (const char* v = val("--artifacts="))
            o.artifacts = v;
        else if (const char* v = val("--churn="))
            o.churn = std::strtoull(v, nullptr, 0);
        else if (const char* v = val("--conn="))
            o.conn = std::strtoull(v, nullptr, 0);
        else if (const char* v = val("--rpc="))
            o.rpc = std::strtoull(v, nullptr, 0);
        else if (const char* v = val("--pipeline="))
            o.pipeline = std::strtoull(v, nullptr, 0);
        else if (a == "--no-trace")
            o.trace = false;
        else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            return false;
        }
    }
    return true;
}

apps::FuzzRunOptions
runner_options(const CliOptions& o)
{
    apps::FuzzRunOptions ropt;
    // The benches' canonical calibrated setup is the base every
    // scenario perturbs: same addressing, same testbed defaults.
    ropt.base_gen = bench::closed_loop_gen(/*frame=*/64, /*window=*/8);
    ropt.base_tb = apps::TestbedConfig{};
    ropt.check_trace = o.trace;
    return ropt;
}

apps::FuzzRunner
make_runner(const CliOptions& o)
{
    return apps::FuzzRunner(runner_options(o));
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
    std::printf("\nFAILURE at seed %llu: %s\n",
                (unsigned long long)failing.seed,
                failing.summary().c_str());
    for (const std::string& why : verdict.violations)
        std::printf("  %s\n", why.c_str());

    std::printf("shrinking...\n");
    sim::ScenarioShrinker shrinker(
        [&](const sim::FuzzScenario& s) { return !runner.run(s).ok; });
    sim::ShrinkResult shrunk = shrinker.shrink(failing);
    std::printf("shrunk after %u runs (%u accepted): %s\n",
                shrunk.predicate_runs, shrunk.accepted_mutations,
                shrunk.scenario.summary().c_str());

    apps::FuzzVerdict mv = runner.run(shrunk.scenario);
    write_file(o.artifacts + "/failing_seed.txt",
               std::to_string(failing.seed) + "\n");
    write_file(o.artifacts + "/minimized_scenario.txt",
               shrunk.scenario.to_string());
    write_file(o.artifacts + "/transcript.txt", mv.transcript);
    std::printf("artifacts written to %s "
                "(failing_seed.txt, minimized_scenario.txt, "
                "transcript.txt)\n",
                o.artifacts.c_str());
    if (failing.pipeline.enabled &&
        failing.workload.mode == sim::FuzzMode::EthEcho)
        std::printf("replay with: fld_fuzz --pipeline=1 --seed0=%llu\n",
                    (unsigned long long)failing.seed);
    else if (failing.workload.mode == sim::FuzzMode::ConnServe)
        std::printf("replay with: fld_fuzz --conn=1 --seed0=%llu\n",
                    (unsigned long long)failing.seed);
    else if (failing.workload.mode == sim::FuzzMode::RpcServe)
        std::printf("replay with: fld_fuzz --rpc=1 --seed0=%llu\n",
                    (unsigned long long)failing.seed);
    else
        std::printf("replay with: fld_fuzz --replay=%llu\n",
                    (unsigned long long)failing.seed);
    return 1;
}

/**
 * Connection-workload sweep: every seed already carries conn-shape
 * draws (they sit at the tail of the generator's draw order), so the
 * mode is simply forced to ConnServe and the scenario replays from
 * the seed alone. Seeds whose natural mode is already ConnServe are
 * unchanged by the forcing.
 */
int
run_conn_mode(const CliOptions& o)
{
    sim::ScenarioFuzzer fuzzer;
    apps::FuzzRunner runner = make_runner(o);
    for (uint64_t i = 0; i < o.conn; ++i) {
        uint64_t seed = o.seed0 + i;
        sim::FuzzScenario s = fuzzer.generate(seed);
        s.workload.mode = sim::FuzzMode::ConnServe;
        apps::FuzzVerdict v = runner.run(s);
        if (!v.ok)
            return report_failure(o, runner, s, v);
        if ((i + 1) % 10 == 0 || i + 1 == o.conn)
            std::printf("[%llu/%llu] conn seed %llu ok: %s\n",
                        (unsigned long long)(i + 1),
                        (unsigned long long)o.conn,
                        (unsigned long long)seed,
                        s.summary().c_str());
    }
    std::printf("all %llu conn seeds clean\n",
                (unsigned long long)o.conn);
    return 0;
}

/**
 * RPC-workload sweep: like run_conn_mode, but forcing RpcServe — the
 * rpc-shape draws sit at the very tail of the generator's draw order,
 * so any seed replays identically with the mode forced.
 */
int
run_rpc_mode(const CliOptions& o)
{
    sim::ScenarioFuzzer fuzzer;
    apps::FuzzRunner runner = make_runner(o);
    for (uint64_t i = 0; i < o.rpc; ++i) {
        uint64_t seed = o.seed0 + i;
        sim::FuzzScenario s = fuzzer.generate(seed);
        s.workload.mode = sim::FuzzMode::RpcServe;
        apps::FuzzVerdict v = runner.run(s);
        if (!v.ok)
            return report_failure(o, runner, s, v);
        if ((i + 1) % 10 == 0 || i + 1 == o.rpc)
            std::printf("[%llu/%llu] rpc seed %llu ok: %s\n",
                        (unsigned long long)(i + 1),
                        (unsigned long long)o.rpc,
                        (unsigned long long)seed,
                        s.summary().c_str());
    }
    std::printf("all %llu rpc seeds clean\n",
                (unsigned long long)o.rpc);
    return 0;
}

/**
 * Pipeline-program sweep: the pipeline-shape draws sit at the very
 * tail of the generator's draw order, so any seed replays identically
 * with the dimension forced on. The mode is forced to EthEcho (the
 * decoration chain splices into the echo steering rules) and the
 * decorated program serves both the FLD and CPU runs.
 */
int
run_pipeline_mode(const CliOptions& o)
{
    sim::ScenarioFuzzer fuzzer;
    apps::FuzzRunner runner = make_runner(o);
    for (uint64_t i = 0; i < o.pipeline; ++i) {
        uint64_t seed = o.seed0 + i;
        sim::FuzzScenario s = fuzzer.generate(seed);
        s.workload.mode = sim::FuzzMode::EthEcho;
        s.pipeline.enabled = true;
        apps::FuzzVerdict v = runner.run(s);
        if (!v.ok)
            return report_failure(o, runner, s, v);
        if ((i + 1) % 10 == 0 || i + 1 == o.pipeline)
            std::printf("[%llu/%llu] pipeline seed %llu ok: %s\n",
                        (unsigned long long)(i + 1),
                        (unsigned long long)o.pipeline,
                        (unsigned long long)seed,
                        s.summary().c_str());
    }
    std::printf("all %llu pipeline seeds clean\n",
                (unsigned long long)o.pipeline);
    return 0;
}

/** One randomized churn scenario per seed: the geometry, fault mix
 *  and traffic shape all derive from the seed, so a failing seed
 *  replays exactly. */
apps::ChurnHarnessConfig
churn_scenario(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc4);
    apps::ChurnHarnessConfig cfg;
    cfg.churn.tenants = uint32_t(rng.range(2, 300));
    cfg.churn.flows_per_tenant = uint32_t(rng.range(1, 200));
    cfg.churn.packet_fraction = 0.3 + 0.6 * rng.uniform_double();
    cfg.churn.skew = rng.uniform_double() * 2.0;
    cfg.churn.dup_open_prob = rng.chance(0.5) ? 0.02 : 0.0;
    cfg.churn.stray_close_prob = rng.chance(0.5) ? 0.02 : 0.0;
    cfg.churn.seed = seed;
    if (rng.chance(0.3))
        cfg.directory.sketch_enabled = false;
    if (rng.chance(0.3)) {
        cfg.tenant_rate_gbps = 0.5 + rng.uniform_double() * 5.0;
        cfg.tenant_burst_bytes = 1 << rng.range(12, 16);
    }
    return cfg;
}

int
run_churn_mode(const CliOptions& o)
{
    for (uint64_t i = 0; i < o.churn; ++i) {
        uint64_t seed = o.seed0 + i;
        apps::ChurnHarnessConfig cfg = churn_scenario(seed);
        apps::ChurnHarness harness(cfg);
        uint64_t events = 4 * harness.gen().target_population();
        apps::ChurnReport rep = harness.run(events);
        if (!rep.ok()) {
            std::printf("\nCHURN FAILURE at seed %llu "
                        "(%u tenants x %u flows, dup=%.2f stray=%.2f)"
                        "\n",
                        (unsigned long long)seed, cfg.churn.tenants,
                        cfg.churn.flows_per_tenant,
                        cfg.churn.dup_open_prob,
                        cfg.churn.stray_close_prob);
            std::string transcript;
            for (const std::string& why : rep.violations) {
                std::printf("  %s\n", why.c_str());
                transcript += why + "\n";
            }
            write_file(o.artifacts + "/failing_seed.txt",
                       std::to_string(seed) + "\n");
            write_file(o.artifacts + "/transcript.txt", transcript);
            std::printf("replay with: fld_fuzz --churn=1 --seed0="
                        "%llu\n",
                        (unsigned long long)seed);
            return 1;
        }
        if ((i + 1) % 25 == 0 || i + 1 == o.churn)
            std::printf("[%llu/%llu] churn seed %llu ok: %llu events,"
                        " %zu live, hash %016llx\n",
                        (unsigned long long)(i + 1),
                        (unsigned long long)o.churn,
                        (unsigned long long)seed,
                        (unsigned long long)rep.events,
                        rep.final_live,
                        (unsigned long long)rep.state_hash);
    }
    std::printf("all %llu churn seeds clean\n",
                (unsigned long long)o.churn);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    CliOptions o;
    if (!parse_args(argc, argv, o))
        return 2;

    if (o.churn > 0)
        return run_churn_mode(o);
    if (o.conn > 0)
        return run_conn_mode(o);
    if (o.rpc > 0)
        return run_rpc_mode(o);
    if (o.pipeline > 0)
        return run_pipeline_mode(o);

    sim::ScenarioFuzzer fuzzer;
    apps::FuzzRunner runner = make_runner(o);

    if (o.replay) {
        sim::FuzzScenario s = fuzzer.generate(o.replay_seed);
        apps::FuzzVerdict v = runner.run(s);
        std::printf("%s", v.transcript.c_str());
        std::printf("transcript_hash = %016llx\n",
                    (unsigned long long)v.transcript_hash);
        return v.ok ? 0 : report_failure(o, runner, s, v);
    }

    auto start = std::chrono::steady_clock::now();
    auto elapsed_sec = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    apps::SweepOptions sweep;
    sweep.seed0 = o.seed0;
    sweep.seeds = o.seeds;
    sweep.budget_sec = o.budget_sec;
    sweep.jobs = o.jobs;
    sweep.run = runner_options(o);
    sweep.on_result = [&](uint64_t done, uint64_t seed,
                          const sim::FuzzScenario& s,
                          const apps::FuzzVerdict& v) {
        if (v.ok && (done % 25 == 0 ||
                     (o.budget_sec == 0 && done == o.seeds)))
            std::printf("[%llu/%s] seed %llu ok: %s\n",
                        (unsigned long long)done,
                        o.budget_sec > 0
                            ? strfmt("%.0fs", o.budget_sec).c_str()
                            : std::to_string(o.seeds).c_str(),
                        (unsigned long long)seed, s.summary().c_str());
    };

    apps::SweepResult result = apps::run_sweep(sweep);
    if (result.found_failure)
        return report_failure(o, runner, result.failing_scenario,
                              result.failing_verdict);
    std::printf("all %llu seeds clean (%.1fs, jobs=%u)\n",
                (unsigned long long)result.ran, elapsed_sec(),
                o.jobs < 1 ? 1u : o.jobs);
    return 0;
}
