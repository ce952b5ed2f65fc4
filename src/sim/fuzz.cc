#include "sim/fuzz.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"

namespace fld::sim {

const char*
to_string(FuzzMode mode)
{
    switch (mode) {
    case FuzzMode::EthEcho:
        return "eth-echo";
    case FuzzMode::RdmaEcho:
        return "rdma-echo";
    case FuzzMode::ConnServe:
        return "conn-serve";
    case FuzzMode::RpcServe:
        return "rpc-serve";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Scenario dump
// ---------------------------------------------------------------------

std::string
FuzzScenario::to_string() const
{
    std::ostringstream os;
    os << "seed = " << seed << "\n";
    os << "mode = " << sim::to_string(workload.mode) << "\n";
    os << "packets = " << workload.packets << "\n";
    os << "bytes = " << workload.bytes << "\n";
    os << "imc_mix = " << (workload.imc_mix ? 1 : 0) << "\n";
    os << "flows = " << workload.flows << "\n";
    os << "window = " << workload.window << "\n";
    os << "offered_gbps = " << workload.offered_gbps << "\n";
    os << "echo_queues = " << echo_queues << "\n";
    os << "rx_buffers = " << rx_buffers << "\n";
    os << "rx_strides = " << rx_strides << "\n";
    os << "rx_stride_shift = " << rx_stride_shift << "\n";
    os << "mtu = " << mtu << "\n";
    os << "cqe_compression = " << (cqe_compression ? 1 : 0) << "\n";
    os << "coalesce_ns = " << coalesce_ns << "\n";
    os << "vxlan = " << (vxlan ? 1 : 0) << "\n";
    os << "vni = " << vni << "\n";
    os << "shaper_gbps = " << shaper_gbps << "\n";
    os << "signal_interval = " << signal_interval << "\n";
    os << "wqe_by_mmio = " << (wqe_by_mmio ? 1 : 0) << "\n";
    os << "fetch_inflight = " << fetch_inflight << "\n";
    os << "fault_seed = " << faults.seed << "\n";
    os << "wire_drop_prob = " << faults.wire.drop_prob << "\n";
    os << "wire_corrupt_prob = " << faults.wire.corrupt_prob << "\n";
    os << "wire_duplicate_prob = " << faults.wire.duplicate_prob << "\n";
    os << "wire_reorder_prob = " << faults.wire.reorder_prob << "\n";
    os << "pcie_read_delay_prob = " << faults.pcie.read_delay_prob << "\n";
    os << "pcie_read_stall_prob = " << faults.pcie.read_stall_prob << "\n";
    os << "pcie_doorbell_jitter_prob = " << faults.pcie.doorbell_jitter_prob
       << "\n";
    os << "accel_stall_prob = " << faults.accel.stall_prob << "\n";
    os << "conn_connections = " << conn.connections << "\n";
    os << "conn_requests = " << conn.requests << "\n";
    os << "conn_request_bytes = " << conn.request_bytes << "\n";
    os << "conn_closed_loop = " << (conn.closed_loop ? 1 : 0) << "\n";
    os << "conn_churn_cycles = " << conn.churn_cycles << "\n";
    os << "conn_rto_us = " << conn.rto_us << "\n";
    os << "conn_fault_target_port = " << conn.fault_target_port << "\n";
    os << "rpc_connections = " << rpc.connections << "\n";
    os << "rpc_requests = " << rpc.requests << "\n";
    os << "rpc_payload_min = " << rpc.payload_min << "\n";
    os << "rpc_payload_max = " << rpc.payload_max << "\n";
    os << "rpc_methods_mask = " << rpc.methods_mask << "\n";
    os << "rpc_workers = " << rpc.workers << "\n";
    os << "rpc_think_us = " << rpc.think_us << "\n";
    os << "rpc_chunk_bytes = " << rpc.chunk_bytes << "\n";
    os << "pipeline_enabled = " << (pipeline.enabled ? 1 : 0) << "\n";
    os << "pipeline_program_seed = " << pipeline.program_seed << "\n";
    os << "pipeline_tables = " << pipeline.tables << "\n";
    os << "pipeline_entries = " << pipeline.entries << "\n";
    os << "pipeline_use_nat = " << (pipeline.use_nat ? 1 : 0) << "\n";
    os << "pipeline_use_vip = " << (pipeline.use_vip ? 1 : 0) << "\n";
    os << "pipeline_use_acl = " << (pipeline.use_acl ? 1 : 0) << "\n";
    return os.str();
}

std::string
FuzzScenario::summary() const
{
    std::ostringstream os;
    if (workload.mode == FuzzMode::RpcServe) {
        os << "rpc-serve conns=" << rpc.connections
           << " reqs=" << rpc.requests << " payload=" << rpc.payload_min
           << ".." << rpc.payload_max << "B methods=0x" << std::hex
           << rpc.methods_mask << std::dec << " workers=" << rpc.workers
           << " think=" << rpc.think_us << "us";
        if (rpc.chunk_bytes)
            os << " chunk=" << rpc.chunk_bytes;
        if (conn.fault_target_port)
            os << " target=" << conn.fault_target_port;
        os << (has_faults() ? " faulty" : " fault-free");
        return os.str();
    }
    if (workload.mode == FuzzMode::ConnServe) {
        os << "conn-serve conns=" << conn.connections
           << " reqs=" << conn.requests << "x" << conn.request_bytes
           << "B" << (conn.closed_loop ? "" : " open-loop");
        if (conn.churn_cycles)
            os << " churn=" << conn.churn_cycles;
        os << " rto=" << conn.rto_us << "us";
        if (conn.fault_target_port)
            os << " target=" << conn.fault_target_port;
        os << (has_faults() ? " faulty" : " fault-free");
        return os.str();
    }
    os << sim::to_string(workload.mode) << " pkts=" << workload.packets
       << " bytes=" << workload.bytes << (workload.imc_mix ? "(imc)" : "")
       << " flows=" << workload.flows;
    if (workload.window > 0)
        os << " win=" << workload.window;
    else
        os << " open@" << workload.offered_gbps << "G";
    os << " q=" << echo_queues;
    if (rx_buffers)
        os << " mprq=" << rx_buffers << "x" << rx_strides << "<<"
           << rx_stride_shift;
    if (cqe_compression)
        os << " cqe-comp";
    if (vxlan)
        os << " vxlan=" << vni;
    if (shaper_gbps > 0)
        os << " shape=" << shaper_gbps << "G";
    if (pipeline.enabled) {
        os << " pipe=" << pipeline.tables << "x" << pipeline.entries;
        if (pipeline.use_nat)
            os << "+nat";
        if (pipeline.use_vip)
            os << "+vip";
        if (pipeline.use_acl)
            os << "+acl";
    }
    os << (has_faults() ? " faulty" : " fault-free");
    return os.str();
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

namespace {

/** Small counts are much better at isolating bugs, so weight them. */
uint32_t
draw_packet_count(Rng& rng)
{
    switch (rng.uniform(4)) {
    case 0:
        return uint32_t(rng.range(1, 8));
    case 1:
        return uint32_t(rng.range(9, 32));
    case 2:
        return uint32_t(rng.range(33, 96));
    default:
        return uint32_t(rng.range(97, 200));
    }
}

} // namespace

FuzzScenario
ScenarioFuzzer::generate(uint64_t seed) const
{
    // All knobs are drawn in one fixed order from one RNG; adding a
    // knob must append draws, never reorder them, or every historical
    // failing seed changes meaning.
    Rng rng(seed);
    FuzzScenario s;
    s.seed = seed;

    // ---- workload ----------------------------------------------------
    s.workload.mode =
        rng.chance(0.30) ? FuzzMode::RdmaEcho : FuzzMode::EthEcho;
    s.workload.packets = draw_packet_count(rng);

    // ---- geometry / NIC knobs (drawn for both modes to keep the
    // draw sequence mode-independent; RDMA ignores most of them) ------
    static const uint32_t kMtus[] = {512, 1024, 1500};
    s.mtu = kMtus[rng.uniform(3)];

    // The IMC mixture reaches full-MTU frames, so it only composes
    // with the standard 1500-byte MTU.
    bool want_imc = rng.chance(0.25);
    if (want_imc && s.mtu == 1500) {
        s.workload.imc_mix = true;
        s.workload.bytes = 0; // sizes drawn per-packet from the mix
    } else {
        s.workload.bytes = uint32_t(rng.range(64, s.mtu));
    }
    s.workload.flows = uint32_t(rng.range(1, 16));
    if (rng.chance(0.25)) {
        s.workload.window = 0; // open loop
        s.workload.offered_gbps = 1.0 + rng.uniform_double() * 24.0;
    } else {
        s.workload.window = uint32_t(rng.range(1, 32));
        s.workload.offered_gbps = 0.0;
    }

    s.echo_queues = uint32_t(rng.range(1, 4));
    if (rng.chance(0.5)) {
        // Randomize MPRQ geometry. Strides smaller than the MTU are
        // deliberately in range — a full-size frame then spans several
        // contiguous strides, which is the very feature MPRQ exists
        // for (and where stride-accounting bugs hide). Only the whole
        // buffer must hold a max-size frame.
        s.rx_stride_shift = uint16_t(rng.range(9, 12));
        static const uint16_t kStrides[] = {8, 16, 32, 64};
        s.rx_strides = kStrides[rng.uniform(4)];
        while (uint32_t(s.rx_strides) << s.rx_stride_shift < s.mtu + 64)
            s.rx_strides *= 2;
        s.rx_buffers = uint32_t(rng.range(8, 64));
        // Stay inside the testbed's 32 MiB driver arenas: cap each
        // queue's MPRQ footprint at 4 MiB (up to 4 echo queues plus
        // rings must fit). Pure clamping — consumes no extra draws.
        const uint64_t per_queue_cap = 4ull << 20;
        while (s.rx_buffers > 8 &&
               uint64_t(s.rx_buffers) * s.rx_strides *
                       (1ull << s.rx_stride_shift) >
                   per_queue_cap)
            s.rx_buffers /= 2;
    }

    s.cqe_compression = rng.chance(0.30);
    s.coalesce_ns = uint32_t(rng.range(100, 800));
    if (rng.chance(0.25)) {
        s.vxlan = true;
        s.vni = uint32_t(rng.range(1, 0xffffff));
    }
    if (rng.chance(0.30))
        s.shaper_gbps = 1.0 + rng.uniform_double() * 20.0;
    s.signal_interval = uint32_t(rng.range(1, 32));
    s.wqe_by_mmio = rng.chance(0.7);
    s.fetch_inflight = uint32_t(rng.range(2, 16));

    // ---- faults ------------------------------------------------------
    // Half the scenarios stay fault-free so the byte-identical
    // differential oracle retains full power; the other half draw
    // small per-class probabilities (kept low so closed-loop runs
    // finish within the step budget even with go-back-N recovery).
    s.faults.seed = rng.next() | 1;
    if (rng.chance(0.5)) {
        if (rng.chance(0.5))
            s.faults.wire.drop_prob = 0.005 + rng.uniform_double() * 0.045;
        if (rng.chance(0.3))
            s.faults.wire.corrupt_prob =
                0.005 + rng.uniform_double() * 0.025;
        if (rng.chance(0.3))
            s.faults.wire.duplicate_prob =
                0.005 + rng.uniform_double() * 0.045;
        if (rng.chance(0.3)) {
            s.faults.wire.reorder_prob =
                0.005 + rng.uniform_double() * 0.045;
            s.faults.wire.reorder_delay_max =
                microseconds(rng.range(1, 5));
        }
        if (rng.chance(0.3))
            s.faults.pcie.read_delay_prob =
                0.01 + rng.uniform_double() * 0.09;
        if (rng.chance(0.15)) {
            s.faults.pcie.read_stall_prob =
                0.002 + rng.uniform_double() * 0.008;
            s.faults.pcie.read_stall_time =
                microseconds(rng.range(5, 20));
        }
        if (rng.chance(0.3))
            s.faults.pcie.doorbell_jitter_prob =
                0.01 + rng.uniform_double() * 0.09;
        if (rng.chance(0.3)) {
            s.faults.accel.stall_prob =
                0.01 + rng.uniform_double() * 0.04;
            s.faults.accel.stall_time = microseconds(rng.range(1, 5));
        }
    }

    // RDMA echo: the FLD-R client drives fixed-size messages over one
    // QP; flows/windows/vxlan/echo geometry do not apply.
    if (s.workload.mode == FuzzMode::RdmaEcho) {
        s.workload.imc_mix = false;
        if (s.workload.bytes == 0)
            s.workload.bytes = 256;
        s.workload.bytes = std::min(s.workload.bytes, 1024u);
        s.workload.flows = 1;
        if (s.workload.window == 0) {
            s.workload.window = 8;
            s.workload.offered_gbps = 0.0;
        }
        s.workload.window = std::min(s.workload.window, 16u);
        s.vxlan = false;
        s.shaper_gbps = 0.0;
        // Accelerator stalls apply to the AFU-side accel units, which
        // the FLD-R echo scenario does not instantiate.
        s.faults.accel = {};
    }

    // ---- connection workload -----------------------------------------
    // Drawn after every pre-existing knob (ordering note at the top),
    // and drawn for every seed: eth/rdma scenarios carry valid conn
    // fields too, which is what lets `fld_fuzz --conn` force-serve any
    // seed's connection shape without perturbing the other draws.
    bool conn_serve = rng.chance(0.30);
    s.conn.connections = uint32_t(rng.range(1, 48));
    s.conn.requests = uint32_t(rng.range(1, 6));
    s.conn.request_bytes = uint32_t(rng.range(16, 1024));
    s.conn.closed_loop = rng.chance(0.7);
    s.conn.churn_cycles = rng.chance(0.25) ? 1 : 0;
    s.conn.rto_us = rng.chance(0.25) ? 500 : 200;
    // Under faults, half the time concentrate every wire fault on one
    // flow (AppEmu ports start at 20000): the per-flow isolation
    // oracle — neighbors must see zero retransmissions — only has
    // teeth when the faults are targeted.
    if (rng.chance(0.5))
        s.conn.fault_target_port =
            uint16_t(20000 + rng.uniform(s.conn.connections));
    if (conn_serve) {
        s.workload.mode = FuzzMode::ConnServe;
        // The TCP stack owns segmentation, pacing and loop shape; the
        // echo workload fields and eSwitch/offload knobs do not apply.
        s.workload.imc_mix = false;
        s.workload.flows = 1;
        s.vxlan = false;
        s.shaper_gbps = 0.0;
    }

    // ---- RPC workload ------------------------------------------------
    // Appended after every pre-existing draw (ordering note at the
    // top), and again drawn for every seed so `fld_fuzz --rpc` can
    // force-serve any seed's RPC shape.
    bool rpc_serve = rng.chance(0.25);
    s.rpc.connections = uint32_t(rng.range(1, 32));
    s.rpc.requests = uint32_t(rng.range(1, 6));
    s.rpc.payload_min = uint32_t(rng.range(1, 64));
    s.rpc.payload_max =
        s.rpc.payload_min + uint32_t(rng.range(0, 960));
    s.rpc.methods_mask = uint32_t(rng.range(1, 15));
    s.rpc.workers = uint32_t(rng.range(1, 8));
    s.rpc.think_us = rng.chance(0.5) ? uint32_t(rng.range(1, 10)) : 0;
    s.rpc.chunk_bytes =
        rng.chance(0.4) ? uint32_t(rng.range(16, 256)) : 0;
    if (rpc_serve) {
        s.workload.mode = FuzzMode::RpcServe;
        // Same knob neutralization as ConnServe: TCP owns the loop.
        // The fault-concentration port stays in the AppEmu range here;
        // the runner remaps it onto the RPC client range so seeds
        // forced to RpcServe by `fld_fuzz --rpc` behave identically.
        s.workload.imc_mix = false;
        s.workload.flows = 1;
        s.vxlan = false;
        s.shaper_gbps = 0.0;
    }

    // ---- pipeline program --------------------------------------------
    // Appended after every pre-existing draw (ordering note at the
    // top), and drawn for every seed so `fld_fuzz --pipeline` can
    // force the compiled-pipeline dimension onto any seed. Effective
    // only on EthEcho scenarios: the decoration chain splices into the
    // echo steering rules, which the TCP/RDMA modes do not use.
    bool pipe_on = rng.chance(0.30);
    s.pipeline.program_seed = rng.next() | 1;
    s.pipeline.tables = uint32_t(rng.range(1, 4));
    s.pipeline.entries = uint32_t(rng.range(1, 4));
    s.pipeline.use_nat = rng.chance(0.5);
    s.pipeline.use_vip = rng.chance(0.5);
    s.pipeline.use_acl = rng.chance(0.5);
    s.pipeline.enabled = pipe_on && s.workload.mode == FuzzMode::EthEcho;

    return s;
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

namespace {

const FuzzScenario kDefaults;

/** Sets @p field to @p value; false when it already holds it. */
template <typename T, typename U>
bool
reset(T& field, U value)
{
    if (field == T(value))
        return false;
    field = T(value);
    return true;
}

bool
packets_at_most(FuzzScenario& s, uint32_t n)
{
    return s.workload.packets > 1 &&
           reset(s.workload.packets, std::clamp(n, 1u, s.workload.packets));
}

template <typename Faults>
bool
clear(Faults& f)
{
    if (!f.enabled())
        return false;
    f = {};
    return true;
}

// Pass groups. Each pass proposes one simplification and returns false
// when it would be a no-op.

// Packet-count reduction dominates replay cost, so it goes first:
// 1, 2, 4, then halvings, then single steps.
constexpr ShrinkPass kPackets[] = {
    [](FuzzScenario& s) { return packets_at_most(s, 1); },
    [](FuzzScenario& s) { return packets_at_most(s, 2); },
    [](FuzzScenario& s) { return packets_at_most(s, 4); },
    [](FuzzScenario& s) { return packets_at_most(s, s.workload.packets / 2); },
    [](FuzzScenario& s) { return packets_at_most(s, s.workload.packets - 1); },
};
// Single-window closed loop, minimal fixed-size frames.
constexpr ShrinkPass kMessageShape[] = {
    [](FuzzScenario& s) -> bool {
        return reset(s.workload.window, 1) |
               reset(s.workload.offered_gbps, 0.0);
    },
    [](FuzzScenario& s) -> bool {
        return reset(s.workload.imc_mix, false) |
               reset(s.workload.bytes, 64);
    },
};
constexpr ShrinkPass kFrameShape[] = {
    [](FuzzScenario& s) { return reset(s.workload.flows, 1); },
    // Open loop at line rate: not smaller, but simpler — back-to-back
    // frames tighten timing races, which usually lets the packet
    // count shrink further.
    [](FuzzScenario& s) {
        return s.workload.window == 0 &&
               reset(s.workload.offered_gbps, 25.0);
    },
    // When minimal frames lose the failure, fixed full-MTU frames
    // still drop the size mixture while keeping multi-stride MPRQ and
    // segmentation reachable. Only ever replaces the mixture, so it
    // cannot undo the minimal-frame pass.
    [](FuzzScenario& s) -> bool {
        return s.workload.imc_mix &&
               (reset(s.workload.imc_mix, false) |
                reset(s.workload.bytes, s.mtu));
    },
};
// Fault classes one at a time, most disruptive first, then single
// wire knobs (when the whole class must stay).
constexpr ShrinkPass kFaults[] = {
    [](FuzzScenario& s) { return clear(s.faults.wire); },
    [](FuzzScenario& s) { return clear(s.faults.pcie); },
    [](FuzzScenario& s) { return clear(s.faults.accel); },
    [](FuzzScenario& s) { return reset(s.faults.wire.drop_prob, 0); },
    [](FuzzScenario& s) { return reset(s.faults.wire.corrupt_prob, 0); },
    [](FuzzScenario& s) { return reset(s.faults.wire.duplicate_prob, 0); },
    [](FuzzScenario& s) { return reset(s.faults.wire.reorder_prob, 0); },
};
// Testbed knobs every echo run reads, back to defaults.
constexpr ShrinkPass kNicKnobs[] = {
    [](FuzzScenario& s) -> bool {
        return reset(s.cqe_compression, kDefaults.cqe_compression) |
               reset(s.coalesce_ns, kDefaults.coalesce_ns);
    },
    [](FuzzScenario& s) {
        return reset(s.fetch_inflight, kDefaults.fetch_inflight);
    },
};
// Ethernet echo geometry and offloads, back to defaults.
constexpr ShrinkPass kEchoKnobs[] = {
    [](FuzzScenario& s) -> bool {
        return s.vxlan && (reset(s.vxlan, false) | reset(s.vni, 0));
    },
    [](FuzzScenario& s) { return reset(s.shaper_gbps, 0); },
    [](FuzzScenario& s) -> bool {
        return reset(s.rx_buffers, 0) | reset(s.rx_strides, 0) |
               reset(s.rx_stride_shift, 0);
    },
    [](FuzzScenario& s) { return reset(s.echo_queues, 1); },
    [](FuzzScenario& s) {
        bool changed = reset(s.mtu, kDefaults.mtu);
        s.workload.bytes = std::min(s.workload.bytes, s.mtu);
        return changed;
    },
    [](FuzzScenario& s) -> bool {
        return reset(s.signal_interval, kDefaults.signal_interval) |
               reset(s.wqe_by_mmio, kDefaults.wqe_by_mmio);
    },
};
// Pipeline program: drop the whole decoration chain first (the
// failure may not need it at all), then peel its features.
constexpr ShrinkPass kPipeline[] = {
    [](FuzzScenario& s) { return reset(s.pipeline.enabled, false); },
    [](FuzzScenario& s) {
        return s.pipeline.enabled && reset(s.pipeline.use_nat, false);
    },
    [](FuzzScenario& s) {
        return s.pipeline.enabled && reset(s.pipeline.use_vip, false);
    },
    [](FuzzScenario& s) {
        return s.pipeline.enabled && reset(s.pipeline.use_acl, false);
    },
    [](FuzzScenario& s) {
        return s.pipeline.enabled && reset(s.pipeline.tables, 1);
    },
    [](FuzzScenario& s) {
        return s.pipeline.enabled && reset(s.pipeline.entries, 1);
    },
};
// Connection workload (halvings reach a fixpoint by repetition).
constexpr ShrinkPass kConn[] = {
    [](FuzzScenario& s) {
        return s.conn.connections > 1 &&
               reset(s.conn.connections, s.conn.connections / 2);
    },
    [](FuzzScenario& s) { return reset(s.conn.requests, 1); },
    [](FuzzScenario& s) { return reset(s.conn.request_bytes, 64); },
    [](FuzzScenario& s) { return reset(s.conn.churn_cycles, 0); },
    [](FuzzScenario& s) { return reset(s.conn.closed_loop, true); },
};
// RPC workload: minimal payloads first, then echo-only methods (the
// accel-backed handlers are the likeliest suspects).
constexpr ShrinkPass kRpc[] = {
    [](FuzzScenario& s) {
        return s.rpc.connections > 1 &&
               reset(s.rpc.connections, s.rpc.connections / 2);
    },
    [](FuzzScenario& s) { return reset(s.rpc.requests, 1); },
    [](FuzzScenario& s) -> bool {
        return reset(s.rpc.payload_min, 16) | reset(s.rpc.payload_max, 16);
    },
    [](FuzzScenario& s) { return reset(s.rpc.methods_mask, 0x1); },
    [](FuzzScenario& s) { return reset(s.rpc.chunk_bytes, 0); },
    [](FuzzScenario& s) { return reset(s.rpc.think_us, 0); },
    [](FuzzScenario& s) { return reset(s.rpc.workers, 1); },
};
// Wire faults on every flow instead of one (both TCP-side runners).
constexpr ShrinkPass kTargeting[] = {
    [](FuzzScenario& s) { return reset(s.conn.fault_target_port, 0); },
};

std::vector<ShrinkPass>
join(std::initializer_list<std::span<const ShrinkPass>> groups)
{
    std::vector<ShrinkPass> v;
    for (std::span<const ShrinkPass> g : groups)
        v.insert(v.end(), g.begin(), g.end());
    return v;
}

} // namespace

std::span<const ShrinkPass>
shrink_passes(const FuzzScenario& s)
{
    // Each mode's runner (apps/fuzz_runner.cc) reads exactly these
    // groups' fields, so no run is spent on a mutation it cannot see.
    static const std::vector<ShrinkPass> eth =
        join({kPackets, kMessageShape, kFrameShape, kFaults, kNicKnobs,
              kEchoKnobs, kPipeline});
    static const std::vector<ShrinkPass> rdma =
        join({kPackets, kMessageShape, kFaults, kNicKnobs});
    static const std::vector<ShrinkPass> conn =
        join({kConn, kTargeting, kFaults});
    static const std::vector<ShrinkPass> rpc =
        join({kRpc, kTargeting, kFaults});
    switch (s.workload.mode) {
    case FuzzMode::EthEcho:
        return eth;
    case FuzzMode::RdmaEcho:
        return rdma;
    case FuzzMode::ConnServe:
        return conn;
    case FuzzMode::RpcServe:
        return rpc;
    }
    return {};
}

std::span<const ShrinkPass>
all_shrink_passes()
{
    static const std::vector<ShrinkPass> all =
        join({kPackets, kMessageShape, kFrameShape, kFaults, kNicKnobs,
              kEchoKnobs, kPipeline, kConn, kRpc, kTargeting});
    return all;
}

ShrinkResult
ScenarioShrinker::shrink(const FuzzScenario& failing)
{
    ShrinkResult res;
    res.scenario = failing;

    auto try_pass = [&](ShrinkPass pass) -> bool {
        if (res.predicate_runs >= max_runs_)
            return false;
        FuzzScenario candidate = res.scenario;
        if (!pass(candidate))
            return false; // no-op, don't burn budget
        ++res.predicate_runs;
        if (!still_fails_(candidate))
            return false;
        res.scenario = candidate;
        ++res.accepted_mutations;
        return true;
    };

    // Repeat each pass while it is accepted, and the whole list until a
    // global fixpoint (a later pass succeeding can re-enable an earlier
    // one, e.g. dropping faults lets the packet count shrink further).
    bool progress = true;
    while (progress && res.predicate_runs < max_runs_) {
        progress = false;
        for (ShrinkPass pass : passes_)
            while (try_pass(pass))
                progress = true;
    }
    return res;
}

} // namespace fld::sim
