/**
 * @file
 * iperf-like multi-flow bulk sender for the IP-defragmentation
 * experiment (§8.2.2).
 *
 * Substitution note (DESIGN.md): the paper runs 60 iperf TCP flows;
 * full TCP congestion control is immaterial here because goodput is
 * pinned by either the wire or the receiver/sender processing
 * bottlenecks, which this open-loop sender with per-datagram sender
 * CPU costs reproduces. Fragmentation (route MTU) and VXLAN
 * encapsulation happen in sender software, exactly as in the paper's
 * setup — which is why the sender becomes the bottleneck in the
 * tunneled configuration.
 */
#ifndef FLD_APPS_IPERF_H
#define FLD_APPS_IPERF_H

#include <cstdint>

#include "driver/cpu_driver.h"
#include "net/headers.h"
#include "net/ip_reassembly.h"
#include "sim/stats.h"
#include "util/rng.h"

namespace fld::apps {

/** L3 datagram size before fragmentation, in bytes: 1500 B IP
 *  datagrams (§8.2.2). */
constexpr size_t kIperfDatagramBytes = 1500;

/** Sender-side kernel costs per original datagram; calibrated so plain
 *  sends saturate 25 GbE while software fragmentation + VXLAN tunneling
 *  caps the sender near the paper's ~17 Gbps (§8.2.2). */
constexpr sim::TimePs kIperfSendCost = sim::nanoseconds(350);
constexpr sim::TimePs kIperfFragmentCost = sim::nanoseconds(800);
constexpr sim::TimePs kIperfVxlanCost = sim::microseconds(8.0);

struct IperfConfig
{
    uint32_t flows = 60;
    /** Route MTU; datagrams above it are fragmented in software. */
    size_t route_mtu = 1500;
    bool fragment = false;
    bool vxlan = false;
    uint32_t vni = 0x1234;
    double offered_gbps = 25.0;

    uint32_t src_ip = net::ipv4_addr(10, 0, 0, 2);
    uint32_t dst_ip = net::ipv4_addr(10, 0, 0, 1);
    uint32_t outer_src_ip = net::ipv4_addr(192, 168, 0, 2);
    uint32_t outer_dst_ip = net::ipv4_addr(192, 168, 0, 1);
    uint16_t base_sport = 42000;
    uint16_t dport = 5201;
    uint64_t seed = 23;
};

class IperfSender
{
  public:
    IperfSender(sim::EventQueue& eq, driver::HostNode& host,
                driver::CpuDriver& driver, IperfConfig cfg = {});

    void start(sim::TimePs duration);

    uint64_t datagrams_sent() const { return datagrams_; }
    uint64_t frames_sent() const { return frames_; }

  private:
    void send_next();

    sim::EventQueue& eq_;
    driver::HostNode& host_;
    driver::CpuDriver& driver_;
    IperfConfig cfg_;
    Rng rng_;
    sim::TimePs end_time_ = 0;
    uint32_t next_flow_ = 0;
    uint16_t next_ip_id_ = 1;
    uint64_t datagrams_ = 0;
    uint64_t frames_ = 0;
};

} // namespace fld::apps

#endif // FLD_APPS_IPERF_H
