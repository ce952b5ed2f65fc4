#include "apps/testbed.h"

namespace fld::apps {

Testbed::Testbed(TestbedConfig cfg_in)
    : fabric(eq, cfg_in.tlp), cfg(cfg_in),
      server_host("server", eq, cfg_in.server_host),
      client_host("client", eq, cfg_in.client_host)
{
    // --- server node ---
    server_host_port = fabric.add_port("server.host.pcie",
                                       cfg.pcie_gbps, cfg.pcie_latency);
    fabric.attach(server_host_port, &server_mem, kServerMemBase,
                  kMemBytes);

    pcie::PortId snic_port = fabric.add_port(
        "server.nic.pcie", cfg.nic_internal_gbps, cfg.pcie_latency);
    server_nic = std::make_unique<nic::NicDevice>(
        "server.nic", eq, fabric, snic_port, cfg.nic);
    fabric.attach(snic_port, server_nic.get(), kServerNicBar,
                  nic::NicDevice::kBarSize);

    pcie::PortId fld_port =
        fabric.add_port("fld.pcie", cfg.pcie_gbps, cfg.pcie_latency);
    fld = std::make_unique<core::FlexDriver>(
        "fld", eq, fabric, fld_port, kFldBar, kServerNicBar, cfg.fld);
    fabric.attach(fld_port, fld.get(), kFldBar,
                  core::FlexDriver::kBarSize);

    rt = std::make_unique<runtime::FldRuntime>(
        *server_nic, *fld, server_mem,
        server_arena_.alloc(64 << 20, 4096), 64 << 20);

    fld_vport = server_nic->add_vport();
    server_app_vport = server_nic->add_vport();

    // --- client node ---
    if (cfg.remote) {
        client_host_port = fabric.add_port(
            "client.host.pcie", cfg.pcie_gbps, cfg.pcie_latency);
        fabric.attach(client_host_port, &client_mem, kClientMemBase,
                      kMemBytes);

        pcie::PortId cnic_port = fabric.add_port(
            "client.nic.pcie", cfg.nic_internal_gbps,
            cfg.pcie_latency);
        client_nic = std::make_unique<nic::NicDevice>(
            "client.nic", eq, fabric, cnic_port, cfg.nic);
        fabric.attach(cnic_port, client_nic.get(), kClientNicBar,
                      nic::NicDevice::kBarSize);
        client_app_vport = client_nic->add_vport();

        wire = std::make_unique<nic::EthernetLink>(
            eq, server_nic->uplink(), client_nic->uplink(),
            cfg.nic.port_gbps, cfg.nic.wire_latency);
    }

    // --- fault plan (opt-in) ---
    // One seeded plan serves every fault site so a single
    // TestbedConfig seed reproduces the whole run. Left null when all
    // knobs are zero: no RNG exists, and timing is bit-identical.
    sim::FaultConfig fc = cfg.fault_config();
    if (fc.enabled()) {
        fault_plan = std::make_unique<sim::FaultPlan>(fc);
        fabric.set_fault_plan(fault_plan.get());
        if (wire)
            wire->set_fault_plan(fault_plan.get(), fc.wire);
    }
}

driver::HostAttach
Testbed::server_side(uint64_t arena_bytes)
{
    return {eq, fabric, server_host_port, server_mem, kServerMemBase,
            *server_nic, kServerNicBar, server_host,
            server_arena_.alloc(arena_bytes, 4096), arena_bytes};
}

driver::HostAttach
Testbed::client_side(uint64_t arena_bytes)
{
    return {eq, fabric, client_host_port, client_mem, kClientMemBase,
            *client_nic, kClientNicBar, client_host,
            client_arena_.alloc(arena_bytes, 4096), arena_bytes};
}

void
Testbed::route_vport_to_uplink(nic::NicDevice& nic, nic::VportId v,
                               int priority)
{
    nic::FlowMatch m;
    m.in_vport = v;
    nic.add_rule(0, priority, m, {nic::fwd_vport(nic::kUplinkVport)});
}

void
Testbed::route_uplink_to_vport(nic::NicDevice& nic, nic::VportId v,
                               int priority)
{
    nic::FlowMatch m;
    m.in_vport = nic::kUplinkVport;
    nic.add_rule(0, priority, m, {nic::fwd_vport(v)});
}

void
Testbed::install_client_forwarding()
{
    if (!client_nic)
        return;
    route_vport_to_uplink(*client_nic, client_app_vport);
    route_uplink_to_vport(*client_nic, client_app_vport);
}

} // namespace fld::apps
