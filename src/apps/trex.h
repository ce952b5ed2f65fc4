/**
 * @file
 * TRex-like multi-tenant traffic generator for the IoT token
 * authentication experiment (§8.2.3): per-tenant flows of CoAP
 * messages carrying signed (or deliberately bogus) JWTs at fixed
 * offered rates.
 */
#ifndef FLD_APPS_TREX_H
#define FLD_APPS_TREX_H

#include <cstdint>
#include <string>
#include <vector>

#include "driver/cpu_driver.h"
#include "net/headers.h"
#include "sim/stats.h"
#include "util/rng.h"

namespace fld::apps {

struct TenantFlow
{
    uint32_t tenant_id = 1;
    double offered_gbps = 1.0;
    size_t frame_size = 256;
    std::string jwt_key = "tenant-key";
    bool valid_tokens = true; ///< false = wrong signature (attack)
    uint16_t sport = 50000;
    uint16_t dport = net::kCoapPort;
    uint32_t src_ip = net::ipv4_addr(10, 0, 0, 2);
};

struct TrexConfig
{
    std::vector<TenantFlow> flows;
    uint32_t dst_ip = net::ipv4_addr(10, 0, 0, 1);
    uint64_t seed = 31;
};

class TrexGen
{
  public:
    TrexGen(sim::EventQueue& eq, driver::CpuDriver& driver,
            TrexConfig cfg);

    void start(sim::TimePs duration);

    uint64_t sent(size_t flow) const { return sent_[flow]; }

    /** Pre-built CoAP/JWT frame for a flow (exposed for tests). */
    net::Packet make_frame(size_t flow);

  private:
    void send_flow(size_t flow);

    sim::EventQueue& eq_;
    driver::CpuDriver& driver_;
    TrexConfig cfg_;
    Rng rng_;
    sim::TimePs end_time_ = 0;
    std::vector<uint64_t> sent_;
    std::vector<uint16_t> msg_id_;
};

} // namespace fld::apps

#endif // FLD_APPS_TREX_H
