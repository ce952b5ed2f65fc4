/**
 * @file
 * Compiled-pipeline lookup rate.
 *
 * At each ruleset size the bench installs an eSwitch-shaped ruleset
 * (VXLAN termination, tenant tag chains, dport steering, a wildcard
 * floor), compiles it into the flat Pipeline program via config_from
 * — the program NicDevice steers with — and times lookups over one
 * pre-extracted field stream. Matching conformance is checked by
 * tests (pipeline_match_test's shadow matcher, flow_table_test), not
 * here; the run only fails (exit 1) when no lookup of a point matched,
 * which would mean it timed a loop that does no work.
 *
 * Results go to BENCH_PIPELINE.json (override with --out=PATH) as a
 * bench::Report of wall-clock rows, archived by CI and never compared.
 *
 * Usage: bench_pipeline [--out=PATH]
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/headers.h"
#include "nic/pipeline.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace fld;
using namespace fld::nic;

/** eSwitch-shaped ruleset: @p rules total across tables 0 and 3. */
FlowTables
make_ruleset(uint32_t rules, fld::Rng& rng)
{
    FlowTables t;
    // VXLAN termination + wildcard floor, as the echo scenarios
    // install them.
    FlowMatch vx;
    vx.in_vport = kUplinkVport;
    vx.dport = net::kVxlanPort;
    t.add_rule(0, 1000, vx, {vxlan_decap(), fwd_tir(1)});
    t.add_rule(0, 1, {}, {fwd_tir(1)});
    for (uint32_t i = 2; i < rules; ++i) {
        FlowMatch m;
        m.in_vport = kUplinkVport;
        std::vector<Action> acts;
        switch (i % 3) {
        case 0: // tenant tag chain: tag + count, resolve in table 3
            m.dport = uint16_t(1000 + i);
            acts = {set_tag(i), count_action(i), goto_table(3)};
            break;
        case 1: // plain dport steering
            m.dport = uint16_t(1000 + i);
            acts = {fwd_queue(i % 8)};
            break;
        default: // src-scoped drop
            m.src_ip = uint32_t(rng.next());
            acts = {drop_action()};
            break;
        }
        t.add_rule(0, int(10 + i % 50), m, std::move(acts));
    }
    FlowMatch tagged;
    tagged.flow_tag = 0; // never set on extracted fields: miss floor
    t.add_rule(3, 1, tagged, {fwd_queue(0)});
    return t;
}

/** Pre-extracted field stream biased so hits and misses both occur. */
std::vector<FlowFields>
make_stream(uint32_t n, uint32_t rules, fld::Rng& rng)
{
    std::vector<FlowFields> fields(n);
    for (auto& f : fields) {
        f.in_vport = kUplinkVport;
        f.ethertype = net::kEtherTypeIpv4;
        f.ip_proto = net::kIpProtoUdp;
        f.src_ip = uint32_t(rng.next());
        f.dst_ip = uint32_t(rng.next());
        f.sport = uint16_t(rng.uniform(0xffff));
        f.dport = rng.chance(0.5)
                      ? uint16_t(1000 + rng.uniform(rules))
                      : uint16_t(rng.uniform(0xffff));
        f.has_l4 = true;
    }
    return fields;
}

/** Pre-extracted fields per stream, and the time budget per point. */
constexpr uint32_t kFields = 20'000;
constexpr double kSeconds = 0.25;

struct PointResult
{
    double rate = 0;     ///< lookups per second
    uint64_t matched = 0; ///< lookups that resolved to a rule
};

double
elapsed_sec(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

PointResult
run_point(uint32_t rules)
{
    PointResult r;
    fld::Rng rng(0xbe9c + rules);
    FlowTables flows = make_ruleset(rules, rng);
    Pipeline pipe(Pipeline::config_from(flows));
    std::vector<FlowFields> stream = make_stream(kFields, rules, rng);

    // Repeat full passes until the time budget is spent.
    uint64_t lookups = 0;
    auto t0 = std::chrono::steady_clock::now();
    do {
        for (const FlowFields& f : stream)
            r.matched += pipe.lookup(0, f) != nullptr;
        lookups += stream.size();
    } while (elapsed_sec(t0) < kSeconds);
    r.rate = double(lookups) / elapsed_sec(t0);
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_PIPELINE.json";
    bench::parse_flags(argc, argv, {{"out", out}});

    bench::banner("Compiled pipeline lookup",
                  "flat program lookups over an eSwitch ruleset");

    bench::Report report;
    bool all_matched = true;
    for (uint32_t rules : {4u, 16u, 64u, 256u}) {
        PointResult r = run_point(rules);
        all_matched = all_matched && r.matched > 0;
        bench::note(strfmt("%4u rules: %7.2f Mlookups/s%s", rules,
                           r.rate / 1e6,
                           r.matched ? "" : "  ** no lookup matched **"));
        report.real(strfmt("rules_%u.lookups_per_sec", rules), r.rate,
                    "1/s", bench::Gate::None);
    }
    if (!all_matched) {
        std::fprintf(stderr, "bench_pipeline: no lookup ever matched\n");
        return 1;
    }
    return bench::finish(report, out, "");
}
