/**
 * @file
 * The benchmark's workloads, each built only through the library's
 * public scenario APIs (apps::make_fld_echo, apps::run_rpc_scenario)
 * and read back through the components' stats() accessors.
 *
 * An episode is one fixed amount of simulated work for a seed: build
 * the scenario, run the traffic to completion, read the results. Its
 * simulated results are a pure function of the seed, so every episode
 * of a run must repeat them bit for bit; its host timings are what the
 * runner takes medians of.
 */
#ifndef FLD_BENCH_E2E_WORKLOADS_H
#define FLD_BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace fld::e2e {

class Sampler;

/** Simulated results of one episode (identical for a given seed). */
struct SimResult
{
    double mops = 0;    ///< echoed packets or completed requests / sim µs
    double gbps = 0;    ///< echoed frame bytes or response payload
    double p50_us = 0, p99_us = 0, p999_us = 0; ///< RTT / request latency
    uint64_t latency_samples = 0;
    uint64_t attempted = 0; ///< sends or requests tried
    uint64_t failed = 0;    ///< refused, unanswered or corrupt
    uint64_t events = 0;    ///< simulator events (0: queue not exposed)
    std::string error;      ///< first failed output check; empty if none

    bool operator==(const SimResult&) const = default;
};

/** What one episode measured. */
struct Episode
{
    SimResult sim;
    double wall_s = 0; ///< host wall time of the traffic phase
    double cpu_s = 0;  ///< host CPU time of the traffic phase
    /** Per-layer values this episode could observe, by metric name. */
    std::map<std::string, double> layer;
};

enum class Mode
{
    Plain,   ///< nothing extra: the end-to-end measurement
    Sampled, ///< CPU-time sampler on during the traffic phase
    Traced,  ///< sim::Tracer + stage joiner + probes on
};

/** A workload; why each exists is in README.md and BENCHMARK.json. */
struct Workload
{
    std::string_view name;
    /** Build the scenario once; returns host seconds spent. */
    double (*setup)(uint64_t seed);
    /** One episode. @p sampler is used in Mode::Sampled. */
    Episode (*run)(uint64_t seed, Mode mode, Sampler* sampler);
};

std::span<const Workload> workloads();
const Workload* find_workload(std::string_view name);

} // namespace fld::e2e

#endif // FLD_BENCH_E2E_WORKLOADS_H
