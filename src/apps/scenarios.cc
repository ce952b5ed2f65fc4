#include "apps/scenarios.h"

#include "util/logging.h"

namespace fld::apps {

namespace {

/** Tables used by the scenarios' match-action pipelines. */
constexpr uint32_t kResumeTable = 5;   ///< post-acceleration resume
constexpr uint32_t kInnerTable = 2;    ///< after VXLAN decap

driver::CpuDriverConfig
gen_driver_cfg(uint32_t queues = 1)
{
    driver::CpuDriverConfig cfg;
    cfg.num_queues = queues;
    return cfg;
}

/** Per-role driver config derived from an EchoOptions template. */
driver::CpuDriverConfig
echo_driver_cfg(const EchoOptions& opt, uint32_t queues)
{
    driver::CpuDriverConfig cfg = opt.driver_base;
    cfg.num_queues = queues;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// FLD-E echo
// ---------------------------------------------------------------------

namespace {
/** Load-generator hosts run DPDK on isolated cores: tiny residual
 *  jitter compared to a kernel-managed core (Table 6's CPU tail comes
 *  from the echo *server*, not the measuring client). */
void
isolate_client_cores(TestbedConfig& cfg)
{
    cfg.client_host.jitter_prob = 0.0005;
    cfg.client_host.jitter_min = sim::microseconds(1);
    cfg.client_host.jitter_mean_extra = sim::nanoseconds(500);
    // Burst-amortized DPDK generator: ~20 ns/packet per side.
    cfg.client_host.rx_packet_cost = sim::nanoseconds(20);
    cfg.client_host.tx_packet_cost = sim::nanoseconds(20);
}
} // namespace

std::unique_ptr<EchoScenario>
make_fld_echo(bool remote, PktGenConfig gen_cfg, TestbedConfig tb_cfg,
              const EchoOptions& opt)
{
    auto s = std::make_unique<EchoScenario>();
    s->remote = remote;
    tb_cfg.remote = remote;
    isolate_client_cores(tb_cfg);
    s->tb = std::make_unique<Testbed>(tb_cfg);
    Testbed& tb = *s->tb;

    // FLD-E queue and echo AFU on the server.
    s->q0 = tb.rt->create_eth_queue(tb.fld_vport, 0, /*rx_buffers=*/16);
    s->echo = std::make_unique<accel::EchoAccelerator>(tb.eq, *tb.fld,
                                                       0);
    if (tb.fault_plan)
        s->echo->set_fault_plan(tb.fault_plan.get(),
                                tb.cfg.accel_faults);

    if (remote) {
        // Generator on the client node.
        // Two queues: tx on core 0, echoes received on core 1 (real
        // testpmd generators split IO across lcores).
        s->gen_driver = std::make_unique<driver::CpuDriver>(
            "client.testpmd", tb.client_side(32 << 20), tb.client_app_vport,
            echo_driver_cfg(opt, 2));
        tb.install_client_forwarding();
        uint32_t tir =
            tb.client_nic->create_tir({{s->gen_driver->rqn(1)}});
        tb.client_nic->set_vport_default_tir(tb.client_app_vport, tir);

        // Server: wire traffic -> FLD queue; FLD egress -> wire.
        if (opt.vxlan) {
            nic::FlowMatch vx;
            vx.in_vport = nic::kUplinkVport;
            vx.dport = net::kVxlanPort;
            tb.server_nic->add_rule(0, 20, vx,
                                    {nic::vxlan_decap(),
                                     nic::fwd_queue(s->q0.rqn)});
        }
        nic::FlowMatch from_wire;
        from_wire.in_vport = nic::kUplinkVport;
        tb.server_nic->add_rule(0, 0, from_wire,
                                {nic::fwd_queue(s->q0.rqn)});
        tb.route_vport_to_uplink(*tb.server_nic, tb.fld_vport);
    } else {
        // Local: generator on the server host's vPort; the embedded
        // switch loops traffic between the two vPorts (§8, "Setup").
        // Two queues: tx core and rx core, like a real testpmd.
        s->gen_driver = std::make_unique<driver::CpuDriver>(
            "server.testpmd", tb.server_side(32 << 20), tb.server_app_vport,
            echo_driver_cfg(opt, 2));
        uint32_t tir =
            tb.server_nic->create_tir({{s->gen_driver->rqn(1)}});
        tb.server_nic->set_vport_default_tir(tb.server_app_vport, tir);

        if (opt.vxlan) {
            nic::FlowMatch vx;
            vx.in_vport = tb.server_app_vport;
            vx.dport = net::kVxlanPort;
            tb.server_nic->add_rule(0, 20, vx,
                                    {nic::vxlan_decap(),
                                     nic::fwd_queue(s->q0.rqn)});
        }
        nic::FlowMatch from_gen;
        from_gen.in_vport = tb.server_app_vport;
        tb.server_nic->add_rule(0, 0, from_gen,
                                {nic::fwd_queue(s->q0.rqn)});
        nic::FlowMatch from_fld;
        from_fld.in_vport = tb.fld_vport;
        tb.server_nic->add_rule(
            0, 0, from_fld, {nic::fwd_vport(tb.server_app_vport)});
    }

    s->gen = std::make_unique<PacketGen>(tb.eq, *s->gen_driver, 0,
                                         gen_cfg);
    tb.eq.run(); // settle descriptor prefetch before traffic starts
    return s;
}

std::unique_ptr<CpuEchoScenario>
make_cpu_echo(bool remote, PktGenConfig gen_cfg, TestbedConfig tb_cfg,
              const EchoOptions& opt)
{
    auto s = std::make_unique<CpuEchoScenario>();
    tb_cfg.remote = remote;
    isolate_client_cores(tb_cfg);
    s->tb = std::make_unique<Testbed>(tb_cfg);
    Testbed& tb = *s->tb;

    // Echo (testpmd) on the server host.
    s->echo_driver = std::make_unique<driver::CpuDriver>(
        "server.testpmd", tb.server_side(32 << 20), tb.server_app_vport,
        echo_driver_cfg(opt, std::max(1u, opt.echo_queues)));
    uint32_t stir =
        tb.server_nic->create_tir({s->echo_driver->all_rqns()});
    tb.server_nic->set_vport_default_tir(tb.server_app_vport, stir);
    s->echo_driver->set_rx_handler(
        [s_ptr = s.get()](uint32_t q, net::Packet&& pkt) {
            s_ptr->echoed++;
            s_ptr->echo_driver->send(q, std::move(pkt));
        });

    if (remote) {
        s->gen_driver = std::make_unique<driver::CpuDriver>(
            "client.testpmd", tb.client_side(32 << 20), tb.client_app_vport,
            echo_driver_cfg(opt, 2));
        tb.install_client_forwarding();
        uint32_t ctir =
            tb.client_nic->create_tir({{s->gen_driver->rqn(1)}});
        tb.client_nic->set_vport_default_tir(tb.client_app_vport, ctir);

        if (opt.vxlan) {
            nic::FlowMatch vx;
            vx.in_vport = nic::kUplinkVport;
            vx.dport = net::kVxlanPort;
            tb.server_nic->add_rule(
                0, 20, vx,
                {nic::vxlan_decap(),
                 nic::fwd_vport(tb.server_app_vport)});
        }
        tb.route_uplink_to_vport(*tb.server_nic, tb.server_app_vport);
        tb.route_vport_to_uplink(*tb.server_nic, tb.server_app_vport);
        s->gen = std::make_unique<PacketGen>(tb.eq, *s->gen_driver, 0,
                                             gen_cfg);
    } else {
        // Local CPU echo: generator and echo on different host vPorts
        // of the same NIC would need a second host vPort driver; use
        // client==server host generator through loopback.
        nic::VportId gen_vport = tb.server_nic->add_vport();
        s->gen_driver = std::make_unique<driver::CpuDriver>(
            "server.gen", tb.server_side(32 << 20), gen_vport,
            [] {
                driver::CpuDriverConfig c;
                c.num_queues = 1;
                c.first_core = 8; // keep generator off the echo cores
                return c;
            }());
        uint32_t gtir =
            tb.server_nic->create_tir({s->gen_driver->all_rqns()});
        tb.server_nic->set_vport_default_tir(gen_vport, gtir);

        if (opt.vxlan) {
            nic::FlowMatch vx;
            vx.in_vport = gen_vport;
            vx.dport = net::kVxlanPort;
            tb.server_nic->add_rule(
                0, 20, vx,
                {nic::vxlan_decap(),
                 nic::fwd_vport(tb.server_app_vport)});
        }
        nic::FlowMatch from_gen;
        from_gen.in_vport = gen_vport;
        tb.server_nic->add_rule(
            0, 0, from_gen, {nic::fwd_vport(tb.server_app_vport)});
        nic::FlowMatch from_echo;
        from_echo.in_vport = tb.server_app_vport;
        tb.server_nic->add_rule(0, 0, from_echo,
                                {nic::fwd_vport(gen_vport)});
        s->gen = std::make_unique<PacketGen>(tb.eq, *s->gen_driver, 0,
                                             gen_cfg);
    }
    tb.eq.run();
    return s;
}

// ---------------------------------------------------------------------
// FLD-R scenarios
// ---------------------------------------------------------------------

namespace {
std::unique_ptr<FldrScenario>
make_fldr_base(bool remote, TestbedConfig tb_cfg)
{
    auto s = std::make_unique<FldrScenario>();
    tb_cfg.remote = remote;
    s->tb = std::make_unique<Testbed>(tb_cfg);
    Testbed& tb = *s->tb;

    s->qp = tb.rt->create_fld_qp(tb.fld_vport, 0, /*rx_buffers=*/16);

    if (remote) {
        s->client = std::make_unique<driver::RdmaClient>(
            "client.rdma", tb.client_side(96 << 20), tb.client_app_vport);
        tb.install_client_forwarding();
        // RoCE plumbing on the server.
        tb.route_vport_to_uplink(*tb.server_nic, tb.fld_vport);
        tb.route_uplink_to_vport(*tb.server_nic, tb.fld_vport);
        s->client->connect(s->qp.qpn, kClientMac, kServerMac);
        tb.rt->connect_qp(s->qp, s->client->qpn(), kServerMac,
                          kClientMac);
    } else {
        // Local: client QP on the server host, loopback via eSwitch.
        s->client = std::make_unique<driver::RdmaClient>(
            "server.rdma", tb.server_side(96 << 20), tb.server_app_vport);
        nic::FlowMatch from_host;
        from_host.in_vport = tb.server_app_vport;
        s->tb->server_nic->add_rule(0, 0, from_host,
                                    {nic::fwd_vport(tb.fld_vport)});
        nic::FlowMatch from_fld;
        from_fld.in_vport = tb.fld_vport;
        s->tb->server_nic->add_rule(
            0, 0, from_fld, {nic::fwd_vport(tb.server_app_vport)});
        s->client->connect(s->qp.qpn, kClientMac, kServerMac);
        tb.rt->connect_qp(s->qp, s->client->qpn(), kServerMac,
                          kClientMac);
    }
    return s;
}
} // namespace

std::unique_ptr<FldrScenario>
make_fldr_echo(bool remote, TestbedConfig tb_cfg)
{
    auto s = make_fldr_base(remote, tb_cfg);
    s->afu = std::make_unique<accel::EchoAccelerator>(
        s->tb->eq, *s->tb->fld, 0);
    if (s->tb->fault_plan)
        s->afu->set_fault_plan(s->tb->fault_plan.get(),
                               s->tb->cfg.accel_faults);
    s->tb->eq.run();
    return s;
}

std::unique_ptr<FldrScenario>
make_fldr_zuc(bool remote, TestbedConfig tb_cfg)
{
    auto s = make_fldr_base(remote, tb_cfg);
    s->afu = std::make_unique<accel::ZucAccelerator>(s->tb->eq,
                                                     *s->tb->fld, 0);
    if (s->tb->fault_plan)
        s->afu->set_fault_plan(s->tb->fault_plan.get(),
                               s->tb->cfg.accel_faults);
    s->tb->eq.run();
    return s;
}

// ---------------------------------------------------------------------
// IP defragmentation
// ---------------------------------------------------------------------

std::unique_ptr<DefragScenario>
make_defrag(const DefragOptions& opt, TestbedConfig tb_cfg)
{
    auto s = std::make_unique<DefragScenario>();
    tb_cfg.remote = true;
    s->tb = std::make_unique<Testbed>(tb_cfg);
    Testbed& tb = *s->tb;

    // Receiver application: multi-queue driver, one core per queue,
    // kernel-stack receive model on top.
    driver::CpuDriverConfig rcfg;
    rcfg.num_queues = opt.rx_queues;
    rcfg.sq_entries = 256; // receive-dominated application
    rcfg.rq_entries = 128;
    rcfg.rx_buffers = 32;
    s->server_driver = std::make_unique<driver::CpuDriver>(
        "server.app", tb.server_side(96 << 20), tb.server_app_vport, rcfg);
    driver::SwStackConfig scfg;
    scfg.software_defrag = !opt.hw_defrag;
    s->stack = std::make_unique<driver::SoftwareReceiveStack>(
        tb.eq, tb.server_host, *s->server_driver, scfg);
    uint32_t app_tir =
        tb.server_nic->create_tir({s->server_driver->all_rqns()});

    // Sender on the client node.
    s->sender_driver = std::make_unique<driver::CpuDriver>(
        "client.iperf", tb.client_side(64 << 20), tb.client_app_vport,
        gen_driver_cfg(4));
    tb.install_client_forwarding();

    IperfConfig icfg;
    icfg.fragment = opt.fragmented;
    icfg.route_mtu = opt.fragmented ? 1450 : 1500;
    icfg.vxlan = opt.vxlan;
    s->iperf = std::make_unique<IperfSender>(tb.eq, tb.client_host,
                                             *s->sender_driver, icfg);

    // Server steering (table 0 = FDB):
    //  - VXLAN traffic: decapsulate first (NIC offload), continue in
    //    the inner table;
    //  - fragments: acceleration action -> defrag AFU, resume at the
    //    RSS table;
    //  - everything else: straight to RSS.
    if (opt.vxlan) {
        nic::FlowMatch vx;
        vx.in_vport = nic::kUplinkVport;
        vx.dport = net::kVxlanPort;
        tb.server_nic->add_rule(0, 20, vx,
                                {nic::vxlan_decap(),
                                 nic::goto_table(kInnerTable)});
    }
    uint32_t entry_table = opt.vxlan ? kInnerTable : 0;
    if (opt.hw_defrag) {
        s->q0 =
            tb.rt->create_eth_queue(tb.fld_vport, 0, /*rx_buffers=*/16);
        s->defrag = std::make_unique<accel::DefragAccelerator>(
            tb.eq, *tb.fld, 0);
        if (tb.fault_plan)
            s->defrag->set_fault_plan(tb.fault_plan.get(),
                                      tb.cfg.accel_faults);
        nic::FlowMatch frag;
        if (!opt.vxlan)
            frag.in_vport = nic::kUplinkVport;
        frag.is_fragment = true;
        tb.server_nic->add_rule(
            entry_table, 10, frag,
            {nic::send_to_accel(s->q0.rqn, kResumeTable)});
    }
    nic::FlowMatch rest;
    if (!opt.vxlan)
        rest.in_vport = nic::kUplinkVport;
    tb.server_nic->add_rule(entry_table, 0, rest,
                            {nic::fwd_tir(app_tir)});
    // Resume table: defragmented packets re-enter here for RSS.
    tb.server_nic->add_rule(kResumeTable, 0, {},
                            {nic::fwd_tir(app_tir)});

    tb.eq.run();
    return s;
}

// ---------------------------------------------------------------------
// IoT authentication
// ---------------------------------------------------------------------

std::unique_ptr<IotScenario>
make_iot(const IotOptions& opt, TestbedConfig tb_cfg)
{
    auto s = std::make_unique<IotScenario>();
    tb_cfg.remote = true;
    s->tb = std::make_unique<Testbed>(tb_cfg);
    Testbed& tb = *s->tb;

    // FLD-E queue + authentication AFU sized to the acceptance
    // capacity the experiment configures (12 Gbps).
    s->q0 = tb.rt->create_eth_queue(tb.fld_vport, 0, /*rx_buffers=*/16);
    accel::UnitModel model = accel::IotAuthAccelerator::default_model();
    if (opt.accel_capacity_gbps > 0) {
        model.units = 8;
        model.setup_time = 0;
        model.unit_gbps = opt.accel_capacity_gbps / model.units;
        model.queue_depth = 16;
    }
    s->auth = std::make_unique<accel::IotAuthAccelerator>(
        tb.eq, *tb.fld, 0, model);
    if (tb.fault_plan)
        s->auth->set_fault_plan(tb.fault_plan.get(),
                                tb.cfg.accel_faults);

    // Server application behind the AFU.
    driver::CpuDriverConfig rcfg;
    rcfg.num_queues = 4;
    s->server_driver = std::make_unique<driver::CpuDriver>(
        "server.app", tb.server_side(64 << 20), tb.server_app_vport, rcfg);
    uint32_t app_tir =
        tb.server_nic->create_tir({s->server_driver->all_rqns()});
    s->server_driver->set_rx_handler(
        [s_ptr = s.get()](uint32_t, net::Packet&& pkt) {
            s_ptr->accepted_bytes[pkt.meta.flow_tag] += pkt.size();
            s_ptr->accepted_meter[pkt.meta.flow_tag].record(
                s_ptr->tb->eq.now(), pkt.size());
        });

    // Client: TRex generator.
    s->gen_driver = std::make_unique<driver::CpuDriver>(
        "client.trex", tb.client_side(64 << 20), tb.client_app_vport,
        gen_driver_cfg(2));
    tb.install_client_forwarding();

    TrexConfig tcfg;
    tcfg.flows = opt.tenants;
    s->trex = std::make_unique<TrexGen>(tb.eq, *s->gen_driver, tcfg);

    // Server steering: classify tenants by source IP, tag them, meter
    // when shaping is on, and send to the AFU; valid packets resume at
    // the delivery table.
    for (size_t i = 0; i < opt.tenants.size(); ++i) {
        const TenantFlow& t = opt.tenants[i];
        s->auth->set_tenant_key(t.tenant_id, t.jwt_key);

        std::vector<nic::Action> actions;
        actions.push_back(nic::set_tag(t.tenant_id));
        if (opt.tenant_rate_cap_gbps > 0) {
            uint32_t meter_id = uint32_t(100 + i);
            tb.server_nic->set_meter(meter_id, opt.tenant_rate_cap_gbps,
                                     64 * 1024);
            actions.push_back(nic::meter(meter_id));
        }
        actions.push_back(nic::send_to_accel(s->q0.rqn, kResumeTable));

        nic::FlowMatch m;
        m.in_vport = nic::kUplinkVport;
        m.src_ip = t.src_ip;
        m.sport = t.sport;
        tb.server_nic->add_rule(0, 10, m, std::move(actions));
    }
    tb.server_nic->add_rule(kResumeTable, 0, {},
                            {nic::fwd_tir(app_tir)});
    tb.route_vport_to_uplink(*tb.server_nic, tb.fld_vport, -1);

    tb.eq.run();
    return s;
}

} // namespace fld::apps
