/**
 * @file
 * Drives a FlowDirectory with a ChurnGen event stream and judges the
 * control-plane oracles.
 *
 * The harness is the control-plane analogue of FuzzRunner: a
 * deterministic scenario (hundreds of tenants x thousands of flows,
 * open/close churn, optional faults) is applied to the directory
 * while the harness cross-checks:
 *
 *  (a) shadow equivalence: an exact std::unordered_map oracle must
 *      agree with the sharded cuckoo directory on every live flow's
 *      tenant, packet and byte counts;
 *  (b) fault rejection: injected duplicate opens and stray closes
 *      must be refused, never corrupt state;
 *  (c) stat conservation: per-tenant open-flow counts sum to the
 *      directory size, opens == closes + live;
 *  (d) budget liveness: a MemBudget tracked through churn (provisioned
 *      structures via scoped registrations + a per-flow active-state
 *      category) must land exactly on size x kFlowStateBytes with zero
 *      underflows, and the provisioned bytes must reconcile with
 *      model::flow_directory_memory.
 *
 * Optional per-tenant token-bucket shaping (the paper's §5.4 isolation
 * mechanism) gates packet accounting so fairness under churn can be
 * asserted from the per-tenant stats.
 */
#ifndef FLD_APPS_CHURN_HARNESS_H
#define FLD_APPS_CHURN_HARNESS_H

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fld/flow_directory.h"
#include "sim/churn.h"
#include "sim/token_bucket.h"

namespace fld::apps {

struct ChurnHarnessConfig
{
    sim::ChurnConfig churn;
    /** Directory geometry. flow_capacity 0 = auto: 9/8 of the churn
     *  target population, rounded up to a power of two. */
    core::FlowDirectoryConfig directory{.flow_capacity = 0};
    /** Mirror every operation into an exact oracle (oracle a).
     *  Disable for the 10^6-flow bench points where the oracle's
     *  memory would dwarf the structure under test. */
    bool shadow_oracle = true;
    /** Per-tenant shaping rate (0 = shaping off). */
    double tenant_rate_gbps = 0.0;
    uint64_t tenant_burst_bytes = 16 * 1024;
};

struct ChurnReport
{
    uint64_t events = 0;
    uint64_t opens = 0;
    uint64_t closes = 0;
    uint64_t packets = 0;
    uint64_t accepted_bytes = 0;
    uint64_t shaped_drops = 0;    ///< packets gated by tenant shaping
    uint64_t rejects = 0;         ///< non-fault opens the directory refused
    uint64_t faults_injected = 0;
    size_t final_live = 0;
    sim::TimePs end_time = 0;
    uint64_t state_hash = 0; ///< FNV over directory + tenant stats
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
};

class ChurnHarness
{
  public:
    explicit ChurnHarness(ChurnHarnessConfig cfg);

    /** Open the initial population (no-op once ramped). */
    void ramp();

    /** Process @p n steady-phase events. */
    void step(uint64_t n);

    /** Judge all oracles; callable repeatedly. */
    ChurnReport report();

    /** ramp() + step(n) + report(). */
    ChurnReport run(uint64_t steady_events);

    const core::FlowDirectory& directory() const { return dir_; }
    const core::MemBudget& budget() const { return budget_; }
    const sim::ChurnGen& gen() const { return gen_; }

  private:
    void apply(const sim::ChurnEvent& ev);

    struct ShadowFlow
    {
        uint16_t tenant = 0;
        uint64_t packets = 0;
        uint64_t bytes = 0;
    };

    ChurnHarnessConfig cfg_;
    sim::ChurnGen gen_;
    /** Declared before dir_: the directory's scoped registrations
     *  must release into a still-alive budget on destruction. */
    core::MemBudget budget_;
    core::FlowDirectory dir_;
    std::unordered_map<uint64_t, ShadowFlow> shadow_;
    /** Keys the directory refused to open; later closes/packets for
     *  them are expected misses, not violations. */
    std::unordered_set<uint64_t> rejected_keys_;
    std::vector<sim::TokenBucket> shapers_; ///< one per tenant
    ChurnReport tally_;
};

} // namespace fld::apps

#endif // FLD_APPS_CHURN_HARNESS_H
