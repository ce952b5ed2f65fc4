/**
 * @file
 * Full-system testbed assembly mirroring the paper's evaluation setups
 * (§8, "Setup"): a server node with an Innova-2-like NIC + FLD, and —
 * for remote experiments — a client node with its own NIC connected
 * back-to-back over a 25 GbE wire. Local experiments instead run a
 * load generator on the server host and loop traffic between vPorts
 * through the embedded switch, bounded by the 50 Gbps PCIe link.
 */
#ifndef FLD_APPS_TESTBED_H
#define FLD_APPS_TESTBED_H

#include <memory>

#include "driver/host_rings.h"
#include "fld/flexdriver.h"
#include "nic/nic.h"
#include "nic/wire.h"
#include "pcie/endpoint.h"
#include "pcie/fabric.h"
#include "runtime/fld_runtime.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "util/arena.h"

namespace fld::apps {

struct TestbedConfig
{
    bool remote = true; ///< attach the client node + 25 GbE wire
    nic::NicConfig nic;
    core::FldConfig fld;
    driver::HostConfig server_host;
    driver::HostConfig client_host;
    double pcie_gbps = 50.0; ///< PCIe Gen3 x8 per direction
    /** The NIC ASIC's port into its integrated PCIe switch: wide
     *  enough to feed both the host and the FPGA 50 Gbps links. */
    double nic_internal_gbps = 110.0;
    sim::TimePs pcie_latency = sim::nanoseconds(100);

    /** TLP sizing plus opt-in PCIe fault knobs (tlp.faults). */
    pcie::TlpParams tlp;
    /** Seed for the testbed-wide fault plan (unused with no faults). */
    uint64_t fault_seed = 1;
    /** Opt-in accelerator back-pressure faults; scenarios attach the
     *  plan to the AFUs they build. */
    sim::AccelFaultConfig accel_faults;

    /** All fault knobs (wire + PCIe + accel) gathered into one view. */
    sim::FaultConfig fault_config() const
    {
        sim::FaultConfig fc;
        fc.seed = fault_seed;
        fc.wire = nic.wire_faults;
        fc.pcie = tlp.faults;
        fc.accel = accel_faults;
        return fc;
    }
};

/** Well-known MACs of the two nodes. */
constexpr net::MacAddr kServerMac = {0x02, 0, 0, 0, 0, 0x51};
constexpr net::MacAddr kClientMac = {0x02, 0, 0, 0, 0, 0xc1};

class Testbed
{
  public:
    // Fabric address map.
    static constexpr uint64_t kServerMemBase = 0x0000'0000;
    static constexpr uint64_t kClientMemBase = 0x2000'0000;
    static constexpr uint64_t kServerNicBar = 0x4000'0000;
    static constexpr uint64_t kClientNicBar = 0x5000'0000;
    static constexpr uint64_t kFldBar = 0x8000'0000;
    static constexpr uint64_t kMemBytes = 256 << 20;

    explicit Testbed(TestbedConfig cfg = {});

    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    TestbedConfig cfg;

    /** Created only when any fault knob is set (null otherwise, so a
     *  default testbed stays bit-identical to pre-fault builds). */
    std::unique_ptr<sim::FaultPlan> fault_plan;

    // Server node (Innova-2: ConnectX-5-like NIC + FLD on one card).
    pcie::MemoryEndpoint server_mem{"server.mem", kMemBytes};
    pcie::PortId server_host_port;
    driver::HostNode server_host;
    std::unique_ptr<nic::NicDevice> server_nic;
    std::unique_ptr<core::FlexDriver> fld;
    std::unique_ptr<runtime::FldRuntime> rt;
    nic::VportId fld_vport = 0;
    nic::VportId server_app_vport = 0; ///< host CPU's vPort

    // Client node (ConnectX-4-like NIC), remote setups only.
    pcie::MemoryEndpoint client_mem{"client.mem", kMemBytes};
    pcie::PortId client_host_port = pcie::kInvalidPort;
    driver::HostNode client_host;
    std::unique_ptr<nic::NicDevice> client_nic;
    std::unique_ptr<nic::EthernetLink> wire;
    nic::VportId client_app_vport = 0;

    /**
     * The server (client) node as a host driver attaches to it, with
     * a fresh @p arena_bytes slice of the node's memory. client_side
     * needs a remote testbed.
     */
    driver::HostAttach server_side(uint64_t arena_bytes);
    driver::HostAttach client_side(uint64_t arena_bytes);

    /** Default FDB plumbing used by most experiments:
     *  - client NIC: app vport <-> uplink both ways;
     *  - server NIC: FLD vport -> uplink (remote) and uplink handling
     *    left to the experiment (steering rules differ per scenario).
     */
    void install_client_forwarding();
    void route_vport_to_uplink(nic::NicDevice& nic, nic::VportId v,
                               int priority = 0);
    void route_uplink_to_vport(nic::NicDevice& nic, nic::VportId v,
                               int priority = 0);

  private:
    /** The nodes' memory past its first page, as offsets into it. */
    Arena server_arena_{"server.mem", 0x1000, kMemBytes - 0x1000};
    Arena client_arena_{"client.mem", 0x1000, kMemBytes - 0x1000};
};

} // namespace fld::apps

#endif // FLD_APPS_TESTBED_H
