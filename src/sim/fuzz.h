/**
 * @file
 * Differential scenario fuzzing: seed -> scenario generation and
 * greedy failure shrinking.
 *
 * The hand-written experiments in apps/scenarios.cc only visit a few
 * curated points of the configuration space; the paper's equivalence
 * claim — an unmodified ConnectX-5 interface behaves identically
 * whether the hardware FLD or the CPU driver is in charge (§3) — is
 * worth checking *everywhere*. This layer provides the pieces that do
 * not depend on the testbed:
 *
 *  - FuzzScenario: a plain-data description of one randomized run
 *    (queue/RSS/MPRQ geometry, offload knobs, VXLAN, shaping, the
 *    workload shape, and a sim::FaultConfig). Everything needed to
 *    reproduce a run is in this struct plus the code revision.
 *  - ScenarioFuzzer: a pure function from a 64-bit seed to a
 *    FuzzScenario, so a failure report is just one number.
 *  - ScenarioShrinker: greedy minimization of a failing scenario
 *    against a caller-supplied "does it still fail?" predicate and
 *    pass list (shrink_passes gives those of the scenario's mode) —
 *    fewer packets, fewer flows, fault classes removed one at a time,
 *    knobs reset to defaults.
 *
 * The testbed-facing half (materializing a FuzzScenario into Testbed
 * configs and judging the oracles) lives in apps/fuzz_runner.h; the
 * dimension table in apps/fuzz_dimension.h ties the two together for
 * the CLI in tools/fld_fuzz.cc.
 */
#ifndef FLD_SIM_FUZZ_H
#define FLD_SIM_FUZZ_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "sim/fault.h"

namespace fld::sim {

/** Which datapath the scenario drives. */
enum class FuzzMode : uint8_t {
    EthEcho,  ///< FLD-E echo AFU vs CPU testpmd echo (differential)
    RdmaEcho, ///< FLD-R echo over the RC transport (exactly-once)
    ConnServe,///< host fast path TCP workload, FLD- vs CPU-served
    RpcServe, ///< RPC tier over the fast path, FLD- vs CPU-served
};

const char* to_string(FuzzMode mode);

/** Traffic shape offered to the scenario under test. */
struct FuzzWorkload
{
    FuzzMode mode = FuzzMode::EthEcho;
    /** Frames (EthEcho) or messages (RdmaEcho) to send in total. */
    uint32_t packets = 32;
    /** Frame size incl. headers (EthEcho) / message bytes (RdmaEcho). */
    uint32_t bytes = 256;
    /** Draw EthEcho frame sizes from the IMC-2010 mixture instead. */
    bool imc_mix = false;
    /** Distinct UDP flows (source ports); RSS spreads them. */
    uint32_t flows = 1;
    /** Closed-loop outstanding window; 0 selects open loop. */
    uint32_t window = 8;
    /** Open-loop offered rate (only used when window == 0). */
    double offered_gbps = 0.0;
};

/**
 * Connection-workload shape for FuzzMode::ConnServe scenarios: an
 * AppEmu client opens TCP connections through the host fast path to a
 * server stack that is either FLD-served or CPU-served (the
 * differential pair), sends patterned requests on each and closes.
 * Every generated scenario carries valid conn fields regardless of
 * mode, so `fld_fuzz --conn` can force-serve any seed.
 */
struct ConnWorkload
{
    uint32_t connections = 8;
    uint32_t requests = 4;       ///< requests per connection
    uint32_t request_bytes = 256;
    bool closed_loop = true;     ///< wait for acks between requests
    uint32_t churn_cycles = 0;   ///< close/reopen rounds per slot
    uint32_t rto_us = 200;       ///< per-connection retransmit timeout
    /** When non-zero, wire faults hit only this client port's flow
     *  (maps onto FastPathHarnessConfig::fault_target_port). */
    uint16_t fault_target_port = 0;
};

/**
 * RPC-workload shape for FuzzMode::RpcServe scenarios: RpcClientPool
 * opens TCP connections to an RpcServer behind the host fast path and
 * runs closed-loop length-prefixed requests against the accel-backed
 * method set (see apps/rpc_service.h). Like ConnWorkload, every
 * generated scenario carries valid rpc fields regardless of mode so
 * `fld_fuzz --rpc` can force-serve any seed.
 */
struct RpcWorkload
{
    uint32_t connections = 8;
    uint32_t requests = 4;     ///< requests per connection
    uint32_t payload_min = 64;
    uint32_t payload_max = 512;
    /** Bit i enables RPC method id i (echo/zuc/defrag/busy). */
    uint32_t methods_mask = 0xf;
    uint32_t workers = 8;      ///< dispatcher worker bank width
    uint32_t think_us = 5;     ///< mean exponential think time
    /** Client-side TX descriptor chunking (0 = whole slots). */
    uint32_t chunk_bytes = 0;
};

/**
 * Random pipeline-program shape for the programmable match-action
 * pipeline (nic/pipeline.h). When enabled on an EthEcho scenario the
 * runner compiles the installed steering rules into the flat program,
 * splices a behavior-preserving decoration chain in front of them
 * (extra tables with masked/ternary entries, counters, tags, identity
 * NAT, single-backend VIP select, never-matching ACL denies, miss →
 * default goto) seeded from program_seed, and serves both the FLD and
 * the CPU run through that program — so the four differential
 * oracles judge random programs end to end. Like conn/rpc, every
 * generated scenario carries valid pipeline fields so `fld_fuzz
 * --pipeline` can force the dimension onto any seed.
 */
struct PipelineFuzz
{
    bool enabled = false;
    uint64_t program_seed = 1;
    uint32_t tables = 2;  ///< decoration chain length (1..4)
    uint32_t entries = 2; ///< entries per decoration table (1..4)
    bool use_nat = false; ///< identity dst-NAT decorations
    bool use_vip = false; ///< single-backend VIP decorations
    bool use_acl = false; ///< ACL denies on unused ports
};

/**
 * One randomized run, fully described. Field defaults are the
 * testbed defaults, so a default-constructed scenario reproduces the
 * calibrated fault-free setup and `reset to defaults` shrink passes
 * are literal assignments.
 */
struct FuzzScenario
{
    uint64_t seed = 0; ///< the seed that generated this scenario

    FuzzWorkload workload;
    ConnWorkload conn; ///< used when workload.mode == ConnServe
    RpcWorkload rpc;   ///< used when workload.mode == RpcServe
    PipelineFuzz pipeline; ///< effective on EthEcho scenarios

    // -- receiver geometry ---------------------------------------------
    uint32_t echo_queues = 1;    ///< CPU echo server RSS width
    uint32_t rx_buffers = 0;     ///< MPRQ buffers per RQ (0 = default)
    uint16_t rx_strides = 0;     ///< strides per MPRQ buffer (0 = default)
    uint16_t rx_stride_shift = 0;///< log2 stride bytes (0 = default)

    // -- NIC / driver knobs --------------------------------------------
    uint32_t mtu = 1500;          ///< max frame size the workload uses
    bool cqe_compression = false; ///< mini-CQE receive compression
    uint32_t coalesce_ns = 400;   ///< CQE coalescing window
    bool vxlan = false;           ///< generator tunnels; eSwitch decaps
    uint32_t vni = 0;
    double shaper_gbps = 0.0;     ///< generator SQ max-rate (0 = off)
    uint32_t signal_interval = 0; ///< TX signalling (0 = default)
    bool wqe_by_mmio = true;      ///< inline lone WQEs in doorbells
    uint32_t fetch_inflight = 0;  ///< descriptor reads in flight (0 = dflt)

    // -- fault schedule -------------------------------------------------
    FaultConfig faults; ///< all-zero = perfect world

    bool has_faults() const { return faults.enabled(); }

    /** Human-readable, replayable dump (one `key = value` per line). */
    std::string to_string() const;
    /** One-line summary for progress output. */
    std::string summary() const;
};

/** Deterministic seed -> scenario mapping. */
class ScenarioFuzzer
{
  public:
    /**
     * Generate the scenario for @p seed. Pure: the same seed always
     * yields the same scenario. Roughly half the scenarios are
     * fault-free (where the byte-identical differential oracle has
     * full power); the rest layer small fault probabilities on top.
     */
    FuzzScenario generate(uint64_t seed) const;
};

/**
 * Predicate handed to the shrinker: true when the (mutated) scenario
 * still exhibits the failure being minimized.
 */
using ScenarioPredicate = std::function<bool(const FuzzScenario&)>;

/** One shrink step: simplifies @p s in place; false when that would
 *  be a no-op (no predicate run is spent on it). */
using ShrinkPass = bool (*)(FuzzScenario& s);

/**
 * Shrink passes for @p s's mode. Each touches only fields that mode's
 * runner reads: smaller packet counts first, then fewer flows,
 * single-window, minimal sizes, individual fault classes removed,
 * knobs reset to defaults, and the conn/rpc/pipeline reductions.
 */
std::span<const ShrinkPass> shrink_passes(const FuzzScenario& s);

/** Every mode's passes, each once: for a shrink with no runner in
 *  view (e.g. a synthetic predicate). */
std::span<const ShrinkPass> all_shrink_passes();

struct ShrinkResult
{
    FuzzScenario scenario; ///< the minimized failing scenario
    uint32_t predicate_runs = 0;
    uint32_t accepted_mutations = 0;
};

/**
 * Greedy shrinking: apply each pass while the predicate still fails,
 * and the pass list again until a fixpoint or the run budget is
 * exhausted.
 */
class ScenarioShrinker
{
  public:
    explicit ScenarioShrinker(ScenarioPredicate still_fails,
                              uint32_t max_predicate_runs = 300)
        : ScenarioShrinker(std::move(still_fails), all_shrink_passes(),
                           max_predicate_runs)
    {}
    ScenarioShrinker(ScenarioPredicate still_fails,
                     std::span<const ShrinkPass> passes,
                     uint32_t max_predicate_runs = 300)
        : still_fails_(std::move(still_fails)), passes_(passes),
          max_runs_(max_predicate_runs)
    {}

    ShrinkResult shrink(const FuzzScenario& failing);

  private:
    ScenarioPredicate still_fails_;
    std::span<const ShrinkPass> passes_;
    uint32_t max_runs_;
};

/**
 * FNV-1a 64-bit — the stable content hash used for delivered-stream
 * digests and run transcripts (std::hash is implementation-defined,
 * which would break cross-build replay comparison).
 */
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x00000100000001b3ull;

inline uint64_t
fnv1a64(const void* data, size_t len, uint64_t h = kFnvBasis)
{
    const uint8_t* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

inline uint64_t
fnv1a64_str(const std::string& s, uint64_t h = kFnvBasis)
{
    return fnv1a64(s.data(), s.size(), h);
}

/** Fold one u64 into @p h as its 8 little-endian bytes. */
inline uint64_t
fnv1a64_u64(uint64_t v, uint64_t h = kFnvBasis)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace fld::sim

#endif // FLD_SIM_FUZZ_H
