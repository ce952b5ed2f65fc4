/**
 * @file
 * Figure 7b: FLD-E / FLD-R echo bandwidth vs packet size, local
 * (50 Gbps PCIe loopback) and remote (25 GbE wire), against the CPU
 * (testpmd) driver baseline and the performance model. Also the
 * §8.1.1 mixed-size (IMC-2010) packet-rate comparison: paper reports
 * 12.7 Mpps FLD-E vs 9.6 Mpps single-core CPU testpmd.
 */
#include "apps/scenarios.h"
#include "bench/bench_util.h"
#include "model/perf_model.h"
#include "sim/trace.h"

using namespace fld;
using namespace fld::apps;

namespace {

constexpr sim::TimePs kWarmup = sim::milliseconds(1);
constexpr sim::TimePs kDuration = sim::milliseconds(4);

double
run_fld_echo(bool remote, size_t frame)
{
    // Local has no wire pacing: a closed loop self-regulates at the
    // PCIe bottleneck instead of collapsing under overload.
    PktGenConfig g = remote ? bench::open_loop_gen(frame)
                            : bench::closed_loop_gen(frame, 256);
    return bench::run_fld_echo_gbps(remote, g, kWarmup, kDuration);
}

double
run_cpu_echo(size_t frame)
{
    return bench::run_cpu_echo_gbps(true, bench::open_loop_gen(frame),
                                    kWarmup, kDuration);
}

double
run_fldr_echo(bool remote, size_t msg_bytes)
{
    auto s = make_fldr_echo(remote);
    sim::RateMeter meter;
    sim::TimePs start_measure = s->tb->eq.now() + kWarmup;
    sim::TimePs end = s->tb->eq.now() + kDuration;
    uint32_t next_id = 1;
    auto& eq = s->tb->eq;
    auto& client = *s->client;

    std::function<void()> send_next = [&] {
        if (eq.now() >= end)
            return;
        client.post_send(std::vector<uint8_t>(msg_bytes, 0xe5),
                         next_id++);
    };
    client.set_msg_handler([&](uint32_t, std::vector<uint8_t>&& msg) {
        if (eq.now() >= start_measure && eq.now() <= end)
            meter.record(eq.now(), msg.size());
        send_next();
    });
    for (int i = 0; i < 64; ++i)
        send_next();
    eq.run();
    return meter.gbps(start_measure, end);
}

double
run_mix_mpps(bool fld)
{
    PktGenConfig g = bench::imc_mix_gen();
    if (fld) {
        auto s = make_fld_echo(true, g);
        s->gen->start(kWarmup, kDuration);
        s->tb->eq.run();
        return bench::measured_mpps(*s->gen);
    }
    auto s = make_cpu_echo(true, g);
    s->gen->start(kWarmup, kDuration);
    s->tb->eq.run();
    return bench::measured_mpps(*s->gen);
}

/**
 * `--trace=<path>` mode: instead of the full throughput sweep, run two
 * short traced exchanges — a fault-free FLD-E echo and a 5%-loss FLD-R
 * echo — validate the causal invariants over both traces, and export
 * the fault-free one as Chrome trace-event JSON for Perfetto. Exits
 * non-zero on any invariant violation so CI can gate on it.
 */
int
run_trace_smoke(const std::string& path)
{
    bench::banner("Packet-lifecycle trace smoke (--trace)",
                  "tracing extension");
    size_t violations = 0;
    sim::TraceChecker checker;

    // Fault-free FLD-E echo, traced from setup through drain.
    sim::Tracer tracer;
    tracer.install();
    {
        PktGenConfig g;
        g.frame_size = 256;
        g.window = 8;
        auto s = make_fld_echo(true, g);
        s->gen->start(sim::microseconds(10), sim::microseconds(200));
        s->tb->eq.run();
    }
    tracer.uninstall();
    auto v = checker.check(tracer.events());
    bench::note(strfmt("fault-free FLD-E echo: %zu events, "
                       "%zu invariant violations",
                       tracer.events().size(), v.size()));
    for (const std::string& why : v)
        bench::note("  VIOLATION: " + why);
    violations += v.size();
    if (!tracer.write_chrome_json(path)) {
        bench::note("FAILED to write trace to " + path);
        return 1;
    }
    bench::note("wrote Chrome trace JSON to " + path +
                " (load it at https://ui.perfetto.dev)");

    // 5%-loss FLD-R echo: go-back-N recovery must stay causally
    // ordered, and completions exactly-once, under a lossy wire.
    sim::Tracer lossy;
    lossy.install();
    {
        TestbedConfig tb;
        tb.fault_seed = 42;
        tb.nic.wire_faults.drop_prob = 0.05;
        auto s = make_fldr_echo(true, tb);
        const uint32_t total = 30;
        uint32_t next = 1;
        auto post_next = [&] {
            if (next <= total) {
                s->client->post_send(
                    std::vector<uint8_t>(2048, uint8_t(next)), next);
                ++next;
            }
        };
        s->client->set_msg_handler(
            [&](uint32_t, std::vector<uint8_t>&&) { post_next(); });
        for (uint32_t i = 0; i < 8; ++i)
            post_next();
        s->tb->eq.run();
    }
    lossy.uninstall();
    auto v2 = checker.check(lossy.events());
    bench::note(strfmt("5%%-loss FLD-R echo: %zu events, "
                       "%zu invariant violations",
                       lossy.events().size(), v2.size()));
    for (const std::string& why : v2)
        bench::note("  VIOLATION: " + why);
    violations += v2.size();

    bench::note(violations == 0 ? "trace smoke: PASS"
                                : "trace smoke: FAIL");
    return violations == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string trace_path;
    uint64_t jobs = 1;
    bench::parse_flags(argc, argv,
                       {{"trace", trace_path}, {"jobs", jobs}});
    if (!trace_path.empty())
        return run_trace_smoke(trace_path);

    bench::banner("Figure 7b: echo throughput vs packet size",
                  "FlexDriver §8.1.1-8.1.2");

    model::PerfModelParams remote_model;
    remote_model.eth_gbps = 25.0;
    remote_model.pcie_gbps = 50.0;

    TextTable t;
    t.header({"Frame B", "FLD-E remote", "FLD-E local", "CPU remote",
              "FLD-R remote", "FLD-R local", "model (remote)",
              "eth line"});
    const std::vector<size_t> sizes = {64, 128, 256, 512, 1024, 1500};
    // Each row builds independent testbeds, so rows can sweep in
    // parallel (--jobs=N); results land in size order either way.
    auto rows = bench::parallel_rows(
        sizes.size(), unsigned(jobs),
        [&](size_t i) -> std::vector<std::string> {
            size_t size = sizes[i];
            double fld_remote = run_fld_echo(true, size);
            double fld_local = run_fld_echo(false, size);
            double cpu = run_cpu_echo(size);
            // FLD-R: message = frame payload; headers ride the
            // transport.
            double fldr = run_fldr_echo(true, size);
            double fldr_local = run_fldr_echo(false, size);
            return {strfmt("%zu", size), format_gbps(fld_remote),
                    format_gbps(fld_local), format_gbps(cpu),
                    format_gbps(fldr), format_gbps(fldr_local),
                    format_gbps(model::fld_expected_gbps(
                        remote_model, uint32_t(size))),
                    format_gbps(
                        model::eth_goodput_gbps(25.0, uint32_t(size)))};
        });
    for (auto& row : rows)
        t.row(row);
    t.print();
    bench::note("paper shape: FLD-E meets the model from ~128 B "
                "(remote) / ~256 B (local); on par with the CPU "
                "driver; FLD-R slightly lower, meeting 25 Gbps for "
                ">= 512 B messages");

    bench::banner("IMC-2010 mixed sizes: packet rate", "§8.1.1");
    double fld_mpps = run_mix_mpps(true);
    double cpu_mpps = run_mix_mpps(false);
    TextTable m;
    m.header({"Driver", "Mpps", "(paper)"});
    m.row({"FLD-E echo", strfmt("%.1f", fld_mpps), "12.7"});
    m.row({"CPU testpmd (1 core)", strfmt("%.1f", cpu_mpps), "9.6"});
    m.row({"ratio", strfmt("%.2fx", fld_mpps / cpu_mpps), "1.32x"});
    m.print();
    return 0;
}
