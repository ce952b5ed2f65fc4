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
 * here.
 *
 * Results go to BENCH_PIPELINE.json (override with --out=PATH) so CI
 * can archive and trend them.
 *
 * Usage: bench_pipeline [--out=PATH] [--fields=N] [--seconds=S]
 */
#include <chrono>
#include <cstdio>
#include <cstring>
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

struct PointResult
{
    uint32_t rules = 0;
    double rate = 0; ///< lookups per second
};

double
elapsed_sec(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

PointResult
run_point(uint32_t rules, uint32_t nfields, double seconds)
{
    PointResult r;
    r.rules = rules;
    fld::Rng rng(0xbe9c + rules);
    FlowTables flows = make_ruleset(rules, rng);
    Pipeline pipe(Pipeline::config_from(flows));
    std::vector<FlowFields> stream = make_stream(nfields, rules, rng);

    // Repeat full passes until the time budget is spent.
    uint64_t sink = 0, lookups = 0;
    auto t0 = std::chrono::steady_clock::now();
    do {
        for (const FlowFields& f : stream)
            sink += pipe.lookup(0, f) != nullptr;
        lookups += stream.size();
    } while (elapsed_sec(t0) < seconds);
    double sec = elapsed_sec(t0);

    if (sink == 0) // keep the loop honest without volatile
        std::fprintf(stderr, "no lookup ever matched\n");
    r.rate = double(lookups) / sec;
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_PIPELINE.json";
    uint32_t nfields = 20'000;
    double seconds = 0.25;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
        else if (std::strncmp(argv[i], "--fields=", 9) == 0)
            nfields = uint32_t(std::strtoul(argv[i] + 9, nullptr, 0));
        else if (std::strncmp(argv[i], "--seconds=", 10) == 0)
            seconds = std::strtod(argv[i] + 10, nullptr);
    }

    bench::banner("Compiled pipeline lookup",
                  "flat program lookups over an eSwitch ruleset");

    std::vector<PointResult> results;
    for (uint32_t rules : {4u, 16u, 64u, 256u}) {
        PointResult r = run_point(rules, nfields, seconds);
        results.push_back(r);
        bench::note(
            strfmt("%4u rules: %7.2f Mlookups/s", rules, r.rate / 1e6));
    }

    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"pipeline\",\n  \"points\": [");
    for (size_t i = 0; i < results.size(); ++i) {
        const PointResult& r = results[i];
        std::fprintf(f,
                     "%s\n    {\"rules\": %u, "
                     "\"compiled_lookups_per_sec\": %.0f}",
                     i ? "," : "", r.rules, r.rate);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    bench::note("wrote " + out);
    return 0;
}
