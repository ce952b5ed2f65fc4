#include "workloads.h"

#include <chrono>
#include <ctime>
#include <memory>
#include <vector>

#include "apps/rpc_harness.h"
#include "apps/scenarios.h"
#include "model/perf_model.h"
#include "net/headers.h"
#include "nic/pipeline.h"
#include "sampler.h"
#include "sim/trace.h"
#include "stages.h"

namespace fld::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Independent per-purpose streams from one workload seed. */
uint64_t
derive(uint64_t seed, uint64_t purpose)
{
    uint64_t z = seed + purpose * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Brackets an episode's traffic phase: host wall and CPU time, and
 *  the sampler when one is given. */
class TrafficPhase
{
  public:
    explicit TrafficPhase(Sampler* sampler) : sampler_(sampler)
    {
        if (sampler_)
            sampler_->start();
        cpu0_ = cpu_seconds();
        t0_ = Clock::now();
    }

    void end(Episode& ep)
    {
        ep.wall_s = seconds_since(t0_);
        ep.cpu_s = cpu_seconds() - cpu0_;
        if (sampler_)
            sampler_->stop();
    }

  private:
    Sampler* sampler_;
    Clock::time_point t0_;
    double cpu0_ = 0;
};

// ---------------------------------------------------------------------
// FLD-E remote echo (echo_64b, echo_imc)
// ---------------------------------------------------------------------

struct EchoSpec
{
    bool imc_mix = false;
    size_t frame = 64;
    uint32_t flows = 1;
    double offered_gbps = 0; ///< 0 = closed loop
    uint32_t window = 0;
    sim::TimePs measured = 0; ///< after kEchoWarmup
};

constexpr sim::TimePs kEchoWarmup = sim::milliseconds(1);

/** echo_64b: smallest frames, closed loop deep enough to keep the
 *  PCIe-bound datapath busy yet lossless. */
constexpr EchoSpec kEcho64{.frame = 64,
                           .flows = 1,
                           .window = 256,
                           .measured = sim::milliseconds(20)};

/** echo_imc: IMC-2010 sizes over 16 flows, open loop at 80% of the
 *  25 GbE line rate. */
constexpr EchoSpec kEchoImc{.imc_mix = true,
                            .flows = 16,
                            .offered_gbps = 20.0,
                            .measured = sim::milliseconds(50)};

/** Simulated time between trace drains in a traced episode. */
constexpr sim::TimePs kTraceStep = sim::microseconds(100);
/** Delivered frames kept for the parse / steering probes. */
constexpr size_t kProbeFrames = 4096;
constexpr uint64_t kProbeEvery = 16;

apps::PktGenConfig
echo_gen(const EchoSpec& spec, uint64_t seed)
{
    apps::PktGenConfig g;
    g.imc_mix = spec.imc_mix;
    g.frame_size = spec.frame;
    g.flows = spec.flows;
    g.offered_gbps = spec.offered_gbps;
    if (spec.window)
        g.window = spec.window;
    g.measure_rtt = true;
    g.pattern_payload = true;
    g.seed = derive(seed, 1);
    return g;
}

apps::TestbedConfig
echo_testbed(uint64_t seed)
{
    apps::TestbedConfig tc;
    tc.client_host.seed = derive(seed, 2);
    tc.server_host.seed = derive(seed, 3);
    return tc;
}

std::unique_ptr<apps::EchoScenario>
make_echo(const EchoSpec& spec, uint64_t seed)
{
    return apps::make_fld_echo(/*remote=*/true, echo_gen(spec, seed),
                               echo_testbed(seed));
}

/** Sum of every PCIe port's counters (each byte counted once, at the
 *  port it leaves). */
struct PcieTotals
{
    uint64_t bytes = 0;
    uint64_t txns = 0;
    pcie::PortStats fld;
};

PcieTotals
pcie_totals(apps::Testbed& tb)
{
    // Testbed adds the FLD's port right after the server NIC's.
    pcie::PortId fld_port = tb.server_nic->dma_port() + 1;
    PcieTotals t;
    for (pcie::PortId p :
         {tb.server_host_port, tb.server_nic->dma_port(), fld_port,
          tb.client_host_port, tb.client_nic->dma_port()}) {
        const pcie::PortStats& s = tb.fabric.stats(p);
        t.bytes += s.egress_bytes;
        t.txns += s.reads + s.writes;
    }
    t.fld = tb.fabric.stats(fld_port);
    return t;
}

uint64_t
nic_drops(const nic::NicStats& s)
{
    return s.drops_no_buffer + s.drops_rule + s.drops_meter +
           s.drops_no_rule + s.drops_acl;
}

/** Mean host nanoseconds of @p op over @p frames, best of a few
 *  rounds (the rounds repeat the same work; the minimum is the one
 *  least disturbed by the rest of the machine). */
template <typename Op>
double
probe_ns(const std::vector<net::Packet>& frames, Op op)
{
    if (frames.empty())
        return 0;
    double best = 0;
    uint64_t sink = 0;
    for (int round = 0; round < 7; ++round) {
        auto t0 = Clock::now();
        for (int rep = 0; rep < 16; ++rep)
            for (const net::Packet& p : frames)
                sink += op(p);
        double ns = seconds_since(t0) * 1e9 / double(16 * frames.size());
        if (round == 0 || ns < best)
            best = ns;
    }
    // Keep the work observable so the calls are not optimized away.
    volatile uint64_t keep = sink;
    (void)keep;
    return best;
}

void
probe_layers(apps::EchoScenario& s, const std::vector<net::Packet>& frames,
             std::map<std::string, double>& layer)
{
    layer["probe.net.parse_ns"] = probe_ns(frames, [](const net::Packet& p) {
        return uint64_t(net::parse(p).payload_offset);
    });
    nic::Pipeline pipeline = s.tb->server_nic->pipeline();
    layer["probe.nic.pipeline_lookup_ns"] =
        probe_ns(frames, [&](const net::Packet& p) {
            nic::FlowFields f = nic::FlowFields::of(p, nic::kUplinkVport);
            return uint64_t(pipeline.lookup(0, f) != nullptr) + f.dport;
        });
}

Episode
run_echo(const EchoSpec& spec, uint64_t seed, Mode mode, Sampler* sampler)
{
    Episode ep;
    // Installed before the scenario is built, so every queue's
    // doorbells are seen from producer index 0.
    std::unique_ptr<sim::Tracer> tracer;
    if (mode == Mode::Traced) {
        tracer = std::make_unique<sim::Tracer>();
        tracer->install();
    }
    auto s = make_echo(spec, seed);
    apps::Testbed& tb = *s->tb;
    sim::EventQueue& eq = tb.eq;
    apps::PacketGen& gen = *s->gen;

    std::vector<net::Packet> frames;
    uint64_t delivered = 0;
    if (mode == Mode::Traced)
        tb.server_nic->set_rx_delivery_probe(
            [&](uint32_t, const net::Packet& p) {
                if (delivered++ % kProbeEvery == 0 &&
                    frames.size() < kProbeFrames)
                    frames.push_back(p);
            });
    StageJoiner joiner(tb.client_nic->ep_name(), tb.server_nic->ep_name());

    uint64_t events0 = eq.executed_total();
    PcieTotals pcie0 = pcie_totals(tb);
    TrafficPhase phase(mode == Mode::Sampled ? sampler : nullptr);
    gen.start(kEchoWarmup, kEchoWarmup + spec.measured);
    if (tracer) {
        // Stepped so the trace is drained while it is small.
        while (eq.pending() > 0) {
            eq.run_until(eq.now() + kTraceStep);
            joiner.consume(tracer->events());
            tracer->clear();
        }
    } else {
        eq.run();
    }
    phase.end(ep);
    if (tracer)
        tracer->uninstall();

    const driver::CpuDriverStats& gd = s->gen_driver->stats();
    const core::FldStats& fs = tb.fld->stats();
    SimResult& r = ep.sim;
    r.mops = gen.rx_meter().mpps(gen.measure_start(), gen.measure_end());
    r.gbps = gen.rx_meter().gbps(gen.measure_start(), gen.measure_end());
    r.p50_us = gen.rtt_us().p(0.5);
    r.p99_us = gen.rtt_us().p(0.99);
    r.p999_us = gen.rtt_us().p(0.999);
    r.latency_samples = gen.rtt_us().count();
    r.attempted = gen.tx_count() + gd.tx_backpressured;
    uint64_t lost =
        gen.tx_count() > gen.rx_count() ? gen.tx_count() - gen.rx_count()
                                        : 0;
    r.failed = gd.tx_backpressured + lost + gen.bad_payload();
    r.events = eq.executed_total() - events0;
    if (gen.bad_payload() > 0)
        r.error = std::to_string(gen.bad_payload()) +
                  " echoes failed payload verification";
    else if (gen.rx_count() > gen.tx_count())
        r.error = "more echoes received than frames sent";

    auto& L = ep.layer;
    double echoed = double(gen.rx_count());
    const sim::EventQueue::WheelStats& ws = eq.wheel_stats();
    L["sim.events"] = double(r.events);
    L["sim.events_per_op"] = ratio(double(r.events), echoed);
    L["sim.events_per_host_s"] = ratio(double(r.events), ep.wall_s) * 1e-6;
    L["sim.wheel.avg_bucket"] = ws.avg_bucket_occupancy();
    L["sim.wheel.cascaded_events"] = double(ws.cascaded_events);

    PcieTotals pcie1 = pcie_totals(tb);
    double to_fld =
        ratio(double(pcie1.fld.ingress_bytes - pcie0.fld.ingress_bytes),
              double(fs.rx_packets));
    double from_fld =
        ratio(double(pcie1.fld.egress_bytes - pcie0.fld.egress_bytes),
              double(fs.tx_packets));
    model::PcieCost cost = model::echo_pcie_cost(
        model::PerfModelParams{},
        uint32_t(ratio(double(fs.rx_bytes), double(fs.rx_packets))));
    L["pcie.bytes_per_op"] = ratio(double(pcie1.bytes - pcie0.bytes), echoed);
    L["pcie.txns_per_op"] = ratio(double(pcie1.txns - pcie0.txns), echoed);
    L["pcie.fld.bytes_per_pkt.to_fld"] = to_fld;
    L["pcie.fld.bytes_per_pkt.from_fld"] = from_fld;
    L["pcie.fld.model_ratio.to_fld"] = ratio(to_fld, cost.to_fld);
    L["pcie.fld.model_ratio.from_fld"] = ratio(from_fld, cost.from_fld);

    const nic::NicStats& sn = tb.server_nic->stats();
    const nic::NicStats& cn = tb.client_nic->stats();
    double wire_rx = double(sn.wire_rx_packets + cn.wire_rx_packets);
    double drops = double(nic_drops(sn) + nic_drops(cn));
    L["nic.drops"] = drops;
    L["nic.drop_ratio"] = ratio(drops, wire_rx);
    L["nic.wire_rx_packets"] = wire_rx;

    L["fld.doorbells_per_pkt"] =
        ratio(double(fs.doorbells), double(fs.tx_packets));
    L["fld.wqe_reads_per_pkt"] =
        ratio(double(fs.wqe_reads), double(fs.tx_packets));
    L["fld.cqes_per_pkt"] = ratio(double(fs.cqes), double(fs.rx_packets));
    L["fld.tx_rejected"] = double(fs.tx_rejected);
    L["driver.gen.tx_backpressured"] = double(gd.tx_backpressured);
    L["accel.dropped_overload"] = double(s->echo->stats().dropped_overload);
    L["accel.tx_failed"] = double(s->echo->stats().tx_failed);

    if (mode == Mode::Traced) {
        probe_layers(*s, frames, L);
        double stage_p50_sum = 0;
        for (size_t d = 0; d < kDirections.size(); ++d)
            for (size_t st = 0; st < kStages.size(); ++st) {
                std::string base = "stage." + std::string(kStages[st]) +
                                   "." + std::string(kDirections[d]);
                double p50 = joiner.quantile_us(d, st, 0.5);
                L[base + ".p50_us"] = p50;
                L[base + ".p99_us"] = joiner.quantile_us(d, st, 0.99);
                stage_p50_sum += p50;
            }
        L["stage.coverage"] = joiner.coverage();
        L["stage.unattributed_us"] = r.p50_us - stage_p50_sum;
    }
    return ep;
}

double
setup_echo(const EchoSpec& spec, uint64_t seed)
{
    auto t0 = Clock::now();
    auto s = make_echo(spec, seed);
    return seconds_since(t0);
}

// ---------------------------------------------------------------------
// FLD-served RPC tier (rpc_40k)
// ---------------------------------------------------------------------

/** 40k short-lived connections opened 64 per 50 µs, two requests
 *  each; the remaining knobs follow bench_rpc's 10k point. */
apps::RpcHarnessConfig
rpc_config(uint64_t seed, uint32_t connections, uint32_t requests)
{
    apps::RpcHarnessConfig cfg;
    cfg.mode = apps::FastPathMode::Fld;
    cfg.client.connections = connections;
    cfg.client.requests_per_conn = requests;
    cfg.client.payload_min = 64;
    cfg.client.payload_max = 512;
    cfg.client.methods_mask = 0xf; // echo + zuc + defrag + busy
    cfg.client.think_mean = sim::microseconds(20);
    cfg.client.seed = derive(seed, 1);
    cfg.client.open_batch = 64;
    cfg.client.open_interval = sim::microseconds(50);
    cfg.client.tx_ring_entries = 256;
    cfg.client.rx_ring_entries = 1024;
    cfg.server.tx_ring_entries = 512;
    cfg.server.rx_ring_entries = 1024;
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.tb.client_host.seed = derive(seed, 2);
    cfg.tb.server_host.seed = derive(seed, 3);
    return cfg;
}

constexpr uint32_t kRpcConnections = 40'000;
constexpr uint32_t kRpcRequestsPerConn = 2;

Episode
run_rpc(uint64_t seed, Mode mode, Sampler* sampler)
{
    Episode ep;
    apps::RpcHarnessConfig cfg =
        rpc_config(seed, kRpcConnections, kRpcRequestsPerConn);
    // The harness installs its own tracer and checks the trace.
    cfg.trace = mode == Mode::Traced;
    TrafficPhase phase(mode == Mode::Sampled ? sampler : nullptr);
    apps::RpcReport rep = apps::run_rpc_scenario(cfg);
    phase.end(ep);

    const apps::RpcClientStats& c = rep.client_app;
    SimResult& r = ep.sim;
    r.mops = rep.req_per_sec * 1e-6;
    r.gbps = rep.goodput_gbps;
    r.p50_us = rep.p50_us;
    r.p99_us = rep.p99_us;
    r.p999_us = rep.p999_us;
    r.latency_samples = rep.latency.count();
    r.attempted = c.requests_sent;
    r.failed = (c.requests_sent > c.responses ? c.requests_sent - c.responses
                                              : 0) +
               c.conformance_errors + c.protocol_errors + c.decode_errors;
    if (!rep.ok)
        r.error = rep.violations.empty() ? "RPC oracles failed"
                                         : rep.violations.front();
    else if (!rep.trace_violations.empty())
        r.error = "trace: " + rep.trace_violations.front();

    auto& L = ep.layer;
    const driver::FastPathStats& a = rep.client_stats;
    const driver::FastPathStats& b = rep.server_stats;
    L["driver.fp.retransmits"] = double(a.retransmits + b.retransmits);
    L["driver.fp.dup_segments"] = double(a.dup_segments + b.dup_segments);
    L["driver.fp.rx_ring_stalls"] =
        double(a.rx_ring_stalls + b.rx_ring_stalls);
    L["driver.fp.backpressure"] =
        double(a.driver_backpressure + b.driver_backpressure);
    L["driver.fp.doorbells_per_op"] =
        ratio(double(a.doorbells + b.doorbells), double(c.responses));
    L["apps.rpc.worker_util"] =
        ratio(double(rep.dispatch.busy_time),
              double(cfg.server.service.workers) * double(rep.end_time));
    L["apps.rpc.tx_ring_full"] =
        double(rep.server_app.tx_ring_full + c.tx_ring_full);
    L["apps.rpc.rejected"] = double(rep.dispatch.rejected);
    return ep;
}

double
setup_rpc(uint64_t seed)
{
    // The harness has no phase split: set-up is priced as a run of the
    // same configuration with one connection making one request.
    auto t0 = Clock::now();
    apps::run_rpc_scenario(rpc_config(seed, 1, 1));
    return seconds_since(t0);
}

const Workload kWorkloads[] = {
    {"echo_64b", [](uint64_t seed) { return setup_echo(kEcho64, seed); },
     [](uint64_t seed, Mode m, Sampler* s) {
         return run_echo(kEcho64, seed, m, s);
     }},
    {"echo_imc", [](uint64_t seed) { return setup_echo(kEchoImc, seed); },
     [](uint64_t seed, Mode m, Sampler* s) {
         return run_echo(kEchoImc, seed, m, s);
     }},
    {"rpc_40k", setup_rpc, run_rpc},
};

} // namespace

std::span<const Workload>
workloads()
{
    return kWorkloads;
}

const Workload*
find_workload(std::string_view name)
{
    for (const Workload& w : kWorkloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

} // namespace fld::e2e
