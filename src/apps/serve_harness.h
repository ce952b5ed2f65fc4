/**
 * @file
 * The two-host serving testbed both app pairs run on: a client node
 * whose FastPath stack sits on a calibrated CpuDriver, a 25 GbE wire,
 * and a server node whose FastPath stack is FLD-driven (an AFU behind
 * the FLD AXI stream; frames never touch the server CPU driver) or
 * CPU-driven (a conventional CpuDriver on the server host's vPort).
 *
 * A ServeHarness builds the testbed and both stacks; the caller puts
 * its app pair on client() and server() — AppEmu/SinkApp or
 * RpcClientPool/RpcServer — runs it, checks the pair's own oracles,
 * and lets finish() fold the shared ones into a ServeReport: stack
 * quiescence, the frame ConservationLedger, fault counters and the
 * optional TraceChecker verdict.
 */
#ifndef FLD_APPS_SERVE_HARNESS_H
#define FLD_APPS_SERVE_HARNESS_H

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "apps/testbed.h"
#include "driver/cpu_driver.h"
#include "driver/fastpath.h"
#include "sim/trace.h"

namespace fld::apps {

/** Which driver serves the server-side stack. */
enum class FastPathMode { Fld, Cpu };

/** Knobs every app pair shares. */
struct ServeConfig
{
    FastPathMode mode = FastPathMode::Fld;
    driver::ConnConfig conn; ///< TCP knobs for both stacks
    TestbedConfig tb; ///< fault knobs ride in tb.nic.wire_faults etc.
    /** When non-zero, wire faults hit only frames of this client
     *  port's flow (see EthernetLink::set_fault_filter). */
    uint16_t fault_target_port = 0;
    /** Record a causal trace and run TraceChecker over it. */
    bool trace = false;
    /** Pre-seed both ARP caches (default); clear to exercise ARP
     *  resolution across the testbed. */
    bool preseed_arp = true;
};

/** The report frame every app pair shares. */
struct ServeReport
{
    bool ok = false;
    std::vector<std::string> violations;
    std::vector<std::string> trace_violations;

    sim::ConservationLedger ledger;
    sim::FaultCounters faults;
    driver::FastPathStats client_stats;
    driver::FastPathStats server_stats;
    bool client_quiesced = false;
    bool server_quiesced = false;
    sim::TimePs end_time = 0;
    /** Engine events the traffic phase executed and the host seconds
     *  it took — simulator-throughput telemetry (observation only;
     *  wall time never feeds back into the simulation). */
    uint64_t events = 0;
    double run_wall_sec = 0;
    /** net::parse calls the traffic phase made (counted on the thread
     *  that ran it; observation only, not in state_hash). */
    uint64_t parses = 0;
    /** Every observable counter folded in: the bit-identical-rerun
     *  oracle value (identical across same-config runs). */
    uint64_t state_hash = 0;

  protected:
    /** The shared tail of summary(): stacks, ledger, faults, state
     *  hash, end time and every violation. */
    void print_frame(std::ostream& os) const;
};

class ServeHarness
{
  public:
    /** Build the remote testbed and both stacks, pre-seed ARP and
     *  install the fault filter as @p cfg asks. */
    explicit ServeHarness(const ServeConfig& cfg);

    sim::EventQueue& eq() { return tb_.eq; }
    driver::FastPath& client() { return *client_fp_; }
    driver::FastPath& server() { return *server_fp_; }
    /** True when any fault knob is set: lifecycle oracles relax. */
    bool faulty() const { return tb_.fault_plan != nullptr; }

    /** Settle descriptor prefetch, call @p start, run to quiescence. */
    void run(const std::function<void()>& start);

    /** Fill @p r's frame after the app pair's own oracles ran: stack
     *  stats, quiescence (and @p server_app_idle), faults, the ledger,
     *  the trace verdict and ok. state_hash is left to the pair. */
    void finish(ServeReport& r, bool server_app_idle = true);

  private:
    bool trace_;
    Testbed tb_;
    sim::Tracer tracer_;
    std::unique_ptr<driver::CpuDriver> client_drv_;
    std::unique_ptr<driver::FastPath> client_fp_;
    std::unique_ptr<driver::FastPath> server_fp_;
    std::unique_ptr<accel::Accelerator> afu_; ///< FLD mode
    std::unique_ptr<driver::CpuDriver> server_drv_; ///< CPU mode
    uint64_t events0_ = 0;
    double run_wall_sec_ = 0;
    uint64_t parses_ = 0;
};

} // namespace fld::apps

#endif // FLD_APPS_SERVE_HARNESS_H
