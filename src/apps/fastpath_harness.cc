#include "apps/fastpath_harness.h"

#include <sstream>

#include "sim/fuzz.h" // fnv1a64
#include "util/strings.h"

namespace fld::apps {

std::string
FastPathReport::summary() const
{
    std::ostringstream os;
    os << (ok ? "OK" : "FAIL") << " opened=" << opened
       << " accepted=" << accepted << " closed=" << closed
       << " resets=" << resets << "\n";
    os << "bytes: client=" << client_bytes << " server=" << server_bytes
       << "\n";
    os << strfmt("flow_hash = %016llx\n", (unsigned long long)flow_hash);
    print_frame(os);
    return os.str();
}

FastPathReport
run_fastpath_scenario(const FastPathHarnessConfig& cfg)
{
    ServeHarness serve(cfg);
    AppEmuConfig app_cfg = cfg.app;
    app_cfg.remote_ip = serve.server().config().ip;
    app_cfg.remote_port = cfg.sink.listen_port;
    AppEmu app(serve.eq(), serve.client(), app_cfg);
    SinkApp sink(serve.eq(), serve.server(), cfg.sink);
    serve.run([&] { app.start(); });

    FastPathReport r;
    r.accepted = sink.accepted();
    r.closed = sink.closed();
    r.resets = sink.resets();
    for (const auto& [port, flow] : sink.flows()) {
        r.server_flows[port] = {flow.bytes, flow.digest, true,
                                flow.closed, flow.reset};
        r.server_bytes += flow.bytes;
    }

    // Lifecycle / exactly-once oracle.
    const bool faulty = serve.faulty();
    if (!app.done())
        r.violations.push_back("client workload did not finish");
    uint32_t opened_outcomes = 0;
    for (const ConnOutcome& out : app.outcomes()) {
        opened_outcomes += out.opened;
        r.client_flows[out.local_port] = {out.sent_bytes, out.sent_digest,
                                          out.opened, out.closed,
                                          out.reset};
        r.client_bytes += out.sent_bytes;
        std::string who = strfmt("conn slot=%u inc=%u port=%u",
                                 out.slot, out.incarnation,
                                 out.local_port);
        if (!out.closed && !out.reset) {
            r.violations.push_back(who + ": no terminal state");
            continue;
        }
        if (!faulty && out.reset) {
            r.violations.push_back(who + ": reset without faults");
            continue;
        }
        if (out.closed && !out.reset) {
            // A clean close means every byte was acked, and go-back-N
            // exactly-once means the server saw the same stream.
            if (!out.opened)
                r.violations.push_back(who + ": closed but not opened");
            if (out.acked_bytes != out.sent_bytes)
                r.violations.push_back(strfmt(
                    "%s: acked %llu != sent %llu", who.c_str(),
                    (unsigned long long)out.acked_bytes,
                    (unsigned long long)out.sent_bytes));
            auto it = r.server_flows.find(out.local_port);
            if (it == r.server_flows.end()) {
                if (out.sent_bytes)
                    r.violations.push_back(who + ": no server flow");
            } else if (it->second.bytes != out.sent_bytes ||
                       it->second.digest != out.sent_digest) {
                r.violations.push_back(strfmt(
                    "%s: server saw %llu bytes digest %016llx, "
                    "client sent %llu bytes digest %016llx",
                    who.c_str(), (unsigned long long)it->second.bytes,
                    (unsigned long long)it->second.digest,
                    (unsigned long long)out.sent_bytes,
                    (unsigned long long)out.sent_digest));
            }
        } else {
            // Reset mid-stream: the server may hold a prefix, never
            // more than was sent (duplicates must not inflate it).
            auto it = r.server_flows.find(out.local_port);
            if (it != r.server_flows.end() &&
                it->second.bytes > out.sent_bytes)
                r.violations.push_back(strfmt(
                    "%s: server delivered %llu > sent %llu",
                    who.c_str(), (unsigned long long)it->second.bytes,
                    (unsigned long long)out.sent_bytes));
        }
    }
    if (!faulty && r.accepted != opened_outcomes)
        r.violations.push_back(strfmt("server accepted %u != client opened %u",
                                      r.accepted, opened_outcomes));

    serve.finish(r);
    r.opened = r.client_stats.conns_opened;

    // Flow hash: per-flow digests from both ends, in port order.
    uint64_t h = sim::kFnvBasis;
    for (const auto& [port, f] : r.client_flows) {
        h = sim::fnv1a64_u64(port, h);
        h = sim::fnv1a64_u64(f.bytes, h);
        h = sim::fnv1a64_u64(f.digest, h);
        h = sim::fnv1a64_u64(uint64_t(f.opened) |
                                 uint64_t(f.closed) << 1 |
                                 uint64_t(f.reset) << 2,
                             h);
    }
    for (const auto& [port, f] : r.server_flows) {
        h = sim::fnv1a64_u64(port, h);
        h = sim::fnv1a64_u64(f.bytes, h);
        h = sim::fnv1a64_u64(f.digest, h);
        h = sim::fnv1a64_u64(uint64_t(f.closed) | uint64_t(f.reset) << 1, h);
    }
    r.flow_hash = h;

    // State hash: every observable counter folded in — two runs of
    // the same config must reproduce this bit-for-bit.
    for (const driver::FastPathStats* st :
         {&r.client_stats, &r.server_stats}) {
        h = sim::fnv1a64_u64(st->frames_tx, h);
        h = sim::fnv1a64_u64(st->frames_rx, h);
        h = sim::fnv1a64_u64(st->segments_sent, h);
        h = sim::fnv1a64_u64(st->segments_received, h);
        h = sim::fnv1a64_u64(st->retransmits, h);
        h = sim::fnv1a64_u64(st->pure_acks_sent, h);
        h = sim::fnv1a64_u64(st->dup_segments, h);
        h = sim::fnv1a64_u64(st->ooo_segments, h);
        h = sim::fnv1a64_u64(st->tx_descs, h);
        h = sim::fnv1a64_u64(st->rx_descs, h);
        h = sim::fnv1a64_u64(st->tx_done_descs, h);
        h = sim::fnv1a64_u64(st->rx_ring_stalls, h);
        h = sim::fnv1a64_u64(st->driver_backpressure, h);
    }
    h = sim::fnv1a64_u64(r.opened, h);
    h = sim::fnv1a64_u64(r.accepted, h);
    h = sim::fnv1a64_u64(r.closed, h);
    h = sim::fnv1a64_u64(r.resets, h);
    h = sim::fnv1a64_u64(r.faults.total(), h);
    h = sim::fnv1a64_u64(r.ledger.tx, h);
    h = sim::fnv1a64_u64(r.ledger.rx, h);
    h = sim::fnv1a64_u64(uint64_t(r.end_time), h);
    r.state_hash = h;

    return r;
}

} // namespace fld::apps
