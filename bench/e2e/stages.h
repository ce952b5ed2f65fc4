/**
 * @file
 * Streaming joiner from packet-lifecycle trace events to per-stage
 * simulated latency on the FLD-E echo path.
 *
 * Each echoed frame crosses the testbed twice: client to server (c2s:
 * the generator's NIC sends, the server NIC delivers into FLD) and
 * server to client (s2c: FLD's NIC sends the echo back). Per direction
 * the joiner times six stages:
 *
 *   db_to_fetch       SQ doorbell covering the WQE -> NIC fetches it
 *   fetch_to_payload  WQE fetch -> payload DMA read
 *   payload_to_wire   payload read -> frame handed to the port
 *   wire              port transmit -> far port receive
 *   rx_to_dma         far port receive -> payload DMA write
 *   dma_to_cqe        payload DMA write -> receive completion write
 *
 * Payload, wire, DMA and CQE events join on the frame's correlation
 * id. Doorbells and WQE fetches carry no id; they join the payload
 * read on (actor, queue, producer index), with 32-bit producer
 * counters folded onto the WQE's 16-bit ring index. A lifecycle is
 * final when the echo's receive completion reaches the client; events
 * may arrive over any number of consume() calls.
 */
#ifndef FLD_BENCH_E2E_STAGES_H
#define FLD_BENCH_E2E_STAGES_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/trace.h"

namespace fld::e2e {

inline constexpr std::array<std::string_view, 2> kDirections = {"c2s",
                                                                "s2c"};
inline constexpr std::array<std::string_view, 6> kStages = {
    "db_to_fetch", "fetch_to_payload", "payload_to_wire",
    "wire",        "rx_to_dma",        "dma_to_cqe"};

class StageJoiner
{
  public:
    /** @p client_nic / @p server_nic: the NICs' trace actor names
     *  (their ports trace as "<name>.uplink"). */
    StageJoiner(std::string client_nic, std::string server_nic);

    /** Fold one chunk of events, in trace order. */
    void consume(const std::vector<sim::TraceEvent>& events);

    /** Correlation ids whose echo completed at the client. */
    uint64_t echoed() const { return echoed_; }
    /** ... of which every stage of both directions was seen. */
    uint64_t complete() const { return complete_; }
    /** complete / echoed (0 when nothing was echoed). */
    double coverage() const;

    /** Quantile @p q in [0, 1] of stage @p stage in direction @p dir,
     *  in microseconds, linearly interpolated; NaN when empty. */
    double quantile_us(size_t dir, size_t stage, double q);

  private:
    enum Stamp { kDb, kFetch, kPayload, kWireTx, kWireRx, kDma, kCqe,
                 kStampCount };
    enum Side { kNone, kClient, kServer };

    struct QueueTimes
    {
        uint32_t pi = 0; ///< last producer index a doorbell published
        std::vector<sim::TimePs> db, fetch; ///< by 16-bit ring index
        QueueTimes();
    };
    using Stamps = std::array<std::array<sim::TimePs, kStampCount>, 2>;

    Side side_of(std::string_view actor) const;
    QueueTimes& queue(std::string_view actor, uint32_t q);
    void stamp(uint64_t corr, size_t dir, Stamp s, sim::TimePs t);
    void finish(uint64_t corr);

    std::string client_, server_;
    std::map<std::pair<std::string, uint32_t>, QueueTimes> queues_;
    std::unordered_map<uint64_t, Stamps> live_;
    /** Stage durations in ps, [dir][stage]. */
    std::array<std::array<std::vector<uint32_t>, 6>, 2> samples_;
    std::array<std::array<bool, 6>, 2> sorted_{};
    uint64_t echoed_ = 0;
    uint64_t complete_ = 0;
};

} // namespace fld::e2e

#endif // FLD_BENCH_E2E_STAGES_H
