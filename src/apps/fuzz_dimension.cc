#include "apps/fuzz_dimension.h"

#include "util/rng.h"
#include "util/strings.h"

namespace fld::apps {

namespace {

FuzzVerdict
run_scenario(FuzzRunner& runner, const sim::FuzzScenario& s)
{
    return runner.run(s);
}

FuzzVerdict
judge_churn(FuzzRunner&, const sim::FuzzScenario& s)
{
    const ChurnHarnessConfig cfg = churn_scenario(s.seed);
    const ChurnReport rep = run_churn(cfg);
    FuzzVerdict v;
    v.ok = rep.ok();
    v.violations = rep.violations;
    v.summary = strfmt("churn %u tenants x %u flows, dup=%.2f "
                       "stray=%.2f: %llu events, %zu live, hash %016llx",
                       cfg.churn.tenants, cfg.churn.flows_per_tenant,
                       cfg.churn.dup_open_prob, cfg.churn.stray_close_prob,
                       (unsigned long long)rep.events, rep.final_live,
                       (unsigned long long)rep.state_hash);
    v.transcript = strfmt("=== churn seed %llu ===\n# %s\n--- verdict ---\n",
                          (unsigned long long)s.seed, v.summary.c_str());
    v.transcript += v.ok ? "ok\n" : "";
    for (const std::string& why : v.violations)
        v.transcript += "violation: " + why + "\n";
    v.transcript_hash = sim::fnv1a64_str(v.transcript);
    return v;
}

std::span<const sim::ShrinkPass>
no_shrinking(const sim::FuzzScenario&)
{
    return {};
}

const FuzzDimension kDimensions[] = {
    {"seeds",
     "natural mix: Ethernet/RDMA echo, conn, rpc and pipeline scenarios "
     "as the generator draws them (default: 100 seeds)",
     nullptr, sim::shrink_passes, run_scenario},
    {"conn",
     "every seed forced to ConnServe: host fast-path TCP workload, "
     "FLD- vs CPU-served",
     [](sim::FuzzScenario& s) { s.workload.mode = sim::FuzzMode::ConnServe; },
     sim::shrink_passes, run_scenario},
    {"rpc",
     "every seed forced to RpcServe: RPC tier over the fast path, "
     "per-request response digests diffed FLD vs CPU",
     [](sim::FuzzScenario& s) { s.workload.mode = sim::FuzzMode::RpcServe; },
     sim::shrink_passes, run_scenario},
    {"pipeline",
     "every seed forced to EthEcho with a random decoration program "
     "spliced into the echo steering",
     [](sim::FuzzScenario& s) {
         s.workload.mode = sim::FuzzMode::EthEcho;
         s.pipeline.enabled = true;
     },
     sim::shrink_passes, run_scenario},
    {"churn",
     "many-tenant control-plane churn (sim::ChurnGen) through the "
     "ChurnHarness oracles; the scenario derives from the seed alone",
     [](sim::FuzzScenario& s) {
         const uint64_t seed = s.seed;
         s = {};
         s.seed = seed;
     },
     no_shrinking, judge_churn},
};

} // namespace

sim::FuzzScenario
FuzzDimension::scenario(uint64_t seed) const
{
    sim::FuzzScenario s = sim::ScenarioFuzzer{}.generate(seed);
    if (force)
        force(s);
    return s;
}

std::span<const FuzzDimension>
fuzz_dimensions()
{
    return kDimensions;
}

const FuzzDimension*
find_fuzz_dimension(std::string_view name)
{
    for (const FuzzDimension& d : kDimensions)
        if (name == d.name)
            return &d;
    return nullptr;
}

ChurnHarnessConfig
churn_scenario(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc4);
    ChurnHarnessConfig cfg;
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

ChurnReport
run_churn(const ChurnHarnessConfig& cfg)
{
    ChurnHarness harness(cfg);
    return harness.run(4 * harness.gen().target_population());
}

} // namespace fld::apps
