/**
 * @file
 * Many-tenant flow-churn scenario generator.
 *
 * Scaling the control plane to 10^6 flows is only credible under the
 * traffic that stresses it: hundreds of tenants opening and closing
 * thousands of flows while packets keep arriving on the survivors.
 * ChurnGen produces that stream deterministically — a ramp phase that
 * opens flows up to the target population, then a steady phase mixing
 * packet arrivals (Zipf-skewed across live flows, so heavy hitters
 * exist by construction) with open/close churn and, optionally,
 * control-plane faults (duplicate opens, stray closes).
 *
 * The same generator feeds unit tests, the fuzzer (fld_fuzz --churn)
 * and bench_paper's flow_scale row, so all three agree on what
 * "churn" means.
 */
#ifndef FLD_SIM_CHURN_H
#define FLD_SIM_CHURN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"

namespace fld::sim {

enum class ChurnOp : uint8_t
{
    Open,  ///< open_flow(key, tenant)
    Close, ///< close_flow(key)
    Packet ///< record(key, bytes)
};

struct ChurnEvent
{
    TimePs time = 0;
    ChurnOp op = ChurnOp::Open;
    uint64_t key = 0;
    uint16_t tenant = 0;
    uint32_t bytes = 0;  ///< packet size (Packet only)
    bool fault = false;  ///< injected duplicate-open / stray-close
};

/** Smallest packet a churn stream records, in bytes: the 64 B
 *  Ethernet minimum. */
constexpr uint32_t kChurnMinBytes = 64;
/** Simulated gap between consecutive churn events. Chosen here. */
constexpr TimePs kChurnSpacing = 100 * kPsPerNs;

struct ChurnConfig
{
    uint32_t tenants = 64;
    /** Steady-state live flows per tenant (population =
     *  tenants x flows_per_tenant). */
    uint32_t flows_per_tenant = 256;
    /** Fraction of steady-phase events that are packets; the rest
     *  split evenly between closes and replacement opens. */
    double packet_fraction = 0.8;
    uint32_t max_bytes = 1500; ///< clamped up to kChurnMinBytes
    /** Zipf-style skew for picking the flow a packet lands on:
     *  0 = uniform, larger = heavier head. */
    double skew = 1.2;
    /** Fault injection probabilities (per steady-phase event). */
    double dup_open_prob = 0.0;
    double stray_close_prob = 0.0;
    uint64_t seed = 1;
};

class ChurnGen
{
  public:
    struct LiveFlow
    {
        uint64_t key;
        uint16_t tenant;
    };

    explicit ChurnGen(ChurnConfig cfg);

    /** Next event in the deterministic stream. */
    ChurnEvent next();

    /** True once the initial population has been fully opened. */
    bool ramp_done() const { return ramped_; }

    /** Flows the generator believes are live. */
    size_t live() const { return live_.size(); }
    /** The live set itself (benches sample it for lookup timing). */
    const std::vector<LiveFlow>& live_flows() const { return live_; }

    uint64_t target_population() const
    {
        return uint64_t(cfg_.tenants) * cfg_.flows_per_tenant;
    }

    const ChurnConfig& config() const { return cfg_; }

  private:
    ChurnEvent open_new();
    size_t pick_live();

    ChurnConfig cfg_;
    fld::Rng rng_;
    std::vector<LiveFlow> live_;
    uint64_t next_serial_ = 0;
    TimePs now_ = 0;
    bool ramped_ = false;
    bool close_next_ = false; ///< alternate close/open in churn slots
};

} // namespace fld::sim

#endif // FLD_SIM_CHURN_H
