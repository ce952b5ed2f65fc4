/**
 * @file
 * testpmd-like packet generator / echo-measurement application.
 *
 * Drives a CpuDriver queue: open-loop at an offered rate or
 * closed-loop with a fixed window, fixed packet sizes or the IMC-2010
 * datacenter mixture, and measures delivered throughput plus — when
 * the far end echoes — round-trip latency (Table 6, Figures 7b/7c).
 */
#ifndef FLD_APPS_PKTGEN_H
#define FLD_APPS_PKTGEN_H

#include <cstdint>
#include <functional>
#include <map>

#include "driver/cpu_driver.h"
#include "net/headers.h"
#include "sim/stats.h"
#include "util/rng.h"

namespace fld::apps {

struct PktGenConfig
{
    /** Ethernet frame size (including headers); >= 64. */
    size_t frame_size = 64;
    /** Use the IMC-2010 size mixture instead of a fixed size. */
    bool imc_mix = false;
    /** Number of distinct UDP flows (source ports). */
    uint32_t flows = 1;
    /** Offered load; 0 means closed loop. */
    double offered_gbps = 0.0;
    /** Closed-loop window (outstanding packets). */
    uint32_t window = 64;
    /** Expect echoes and measure RTT. */
    bool measure_rtt = false;

    /** Hard budget on generated packets; 0 = unlimited (time-bound
     *  only). The differential fuzzer needs both runs of a scenario to
     *  emit exactly the same request stream, which a pure time bound
     *  cannot guarantee when RTTs differ between the two datapaths. */
    uint64_t max_packets = 0;
    /** Fill payload bytes past the cookie/timestamp header with a
     *  cookie-derived pattern and verify echoed payloads against it
     *  (corruption detection end to end). */
    bool pattern_payload = false;
    /** Track a per-flow FNV-1a digest of delivered payloads (send
     *  timestamps masked), for byte-identical stream comparison. */
    bool flow_digests = false;
    /** VXLAN-encapsulate generated frames; the device under test is
     *  expected to decapsulate (eSwitch offload) so echoes come back
     *  as the inner frame. */
    bool vxlan = false;
    uint32_t vni = 0;
    uint32_t vxlan_src_ip = net::ipv4_addr(192, 168, 0, 2);
    uint32_t vxlan_dst_ip = net::ipv4_addr(192, 168, 0, 1);

    uint32_t src_ip = net::ipv4_addr(10, 0, 0, 2);
    uint32_t dst_ip = net::ipv4_addr(10, 0, 0, 1);
    uint16_t base_sport = 40000;
    uint16_t dport = 9000;
    uint64_t seed = 7;
};

/**
 * The IMC-2010 datacenter packet-size mixture [9], approximated as a
 * small empirical distribution: packet counts are dominated by small
 * (<200 B) and full-MTU packets. Used for the mixed-size Mpps
 * comparison of §8.1.1 (12.7 Mpps FLD-E vs 9.6 Mpps CPU testpmd).
 */
size_t imc_frame_size(Rng& rng);

class PacketGen
{
  public:
    PacketGen(sim::EventQueue& eq, driver::CpuDriver& driver,
              uint32_t queue, PktGenConfig cfg = {});

    /**
     * Generate for @p duration; samples taken after @p warmup count
     * toward the reported meters/histogram.
     */
    void start(sim::TimePs warmup, sim::TimePs duration);

    /** Measured delivered (received-back) traffic. */
    const sim::RateMeter& rx_meter() const { return rx_meter_; }
    /** RTT in microseconds (measure_rtt mode). */
    const sim::Histogram& rtt_us() const { return rtt_us_; }

    uint64_t tx_count() const { return tx_count_; }
    uint64_t rx_count() const { return rx_count_; }
    /** Echoes whose payload failed pattern verification. */
    uint64_t bad_payload() const { return bad_payload_; }
    /** flow id (cookie % flows) -> running FNV-1a stream digest. */
    const std::map<uint32_t, uint64_t>& flow_digests() const
    {
        return flow_digests_;
    }
    sim::TimePs measure_start() const { return measure_start_; }
    sim::TimePs measure_end() const { return last_rx_; }

  private:
    void send_one();
    void schedule_next_open_loop();
    void on_rx(net::Packet&& pkt);
    net::Packet make_packet();

    sim::EventQueue& eq_;
    driver::CpuDriver& driver_;
    uint32_t queue_;
    PktGenConfig cfg_;
    Rng rng_;
    std::vector<uint8_t> body_; ///< make_packet's payload scratch
    net::PacketBuilder builder_;

    bool running_ = false;
    sim::TimePs measure_start_ = 0;
    sim::TimePs end_time_ = 0;
    sim::TimePs last_rx_ = 0;
    uint64_t next_cookie_ = 1;
    uint64_t tx_count_ = 0;
    uint64_t rx_count_ = 0;
    uint64_t bad_payload_ = 0;
    std::map<uint32_t, uint64_t> flow_digests_;
    sim::RateMeter rx_meter_;
    sim::Histogram rtt_us_;
};

} // namespace fld::apps

#endif // FLD_APPS_PKTGEN_H
