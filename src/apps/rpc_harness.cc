#include "apps/rpc_harness.h"

#include <sstream>

#include "sim/fuzz.h" // fnv1a64
#include "util/strings.h"

namespace fld::apps {

std::string
RpcReport::summary() const
{
    std::ostringstream os;
    os << (ok ? "OK" : "FAIL") << " opened=" << client_app.opened
       << " closed=" << client_app.closed
       << " aborted=" << client_app.aborted
       << " requests=" << client_app.requests_sent
       << " responses=" << client_app.responses << "\n";
    os << "server: requests=" << server_app.requests
       << " responses=" << server_app.responses
       << " acked=" << server_app.responses_acked
       << " decode_errors=" << server_app.decode_errors << "\n";
    os << strfmt("latency us: p50=%.2f p99=%.2f p99.9=%.2f mean=%.2f "
                 "n=%zu\n",
                 p50_us, p99_us, p999_us, mean_us, latency.count());
    os << strfmt("rate: %.0f req/s, %.4f Gbps goodput\n", req_per_sec,
                 goodput_gbps);
    os << strfmt("digest_hash = %016llx\n",
                 (unsigned long long)digest_hash);
    print_frame(os);
    return os.str();
}

RpcReport
run_rpc_scenario(const RpcHarnessConfig& cfg)
{
    ServeHarness serve(cfg);
    RpcClientConfig client_cfg = cfg.client;
    client_cfg.remote_ip = serve.server().config().ip;
    client_cfg.remote_port = cfg.server.listen_port;
    RpcClientPool pool(serve.eq(), serve.client(), client_cfg);
    RpcServer server(serve.eq(), serve.server(), cfg.server);
    serve.run([&] { pool.start(); });

    RpcReport r;
    r.client_app = pool.stats();
    r.server_app = server.stats();
    r.dispatch = server.dispatcher().stats();
    r.digests = pool.digests();
    r.latency = pool.latency();
    r.p50_us = r.latency.percentile(50);
    r.p99_us = r.latency.percentile(99);
    r.p999_us = r.latency.p(0.999);
    r.mean_us = r.latency.mean();

    const bool faulty = serve.faulty();

    // Shadow conformance and stream integrity hold unconditionally:
    // TCP delivers byte streams intact or resets, never corrupted.
    for (const std::string& e : pool.errors())
        r.violations.push_back("client: " + e);
    if (r.client_app.conformance_errors)
        r.violations.push_back(
            strfmt("%llu responses diverged from the shadow oracle",
                   (unsigned long long)r.client_app.conformance_errors));
    if (r.client_app.protocol_errors)
        r.violations.push_back(strfmt(
            "%llu protocol errors (unexpected request ids)",
            (unsigned long long)r.client_app.protocol_errors));
    if (r.client_app.decode_errors || r.server_app.decode_errors)
        r.violations.push_back(strfmt(
            "poisoned frame streams (client=%llu server=%llu)",
            (unsigned long long)r.client_app.decode_errors,
            (unsigned long long)r.server_app.decode_errors));
    if (r.dispatch.rejected)
        r.violations.push_back(
            strfmt("dispatcher rejected %llu requests",
                   (unsigned long long)r.dispatch.rejected));
    if (!pool.done())
        r.violations.push_back("client workload did not finish");

    // Lifecycle: fault-free runs finish everything, exactly once.
    if (!faulty) {
        if (r.client_app.aborted)
            r.violations.push_back(strfmt(
                "%u connections aborted without faults",
                r.client_app.aborted));
        uint64_t expect = uint64_t(cfg.client.connections) *
                          cfg.client.requests_per_conn;
        if (r.client_app.responses != expect)
            r.violations.push_back(strfmt(
                "completed %llu / %llu requests",
                (unsigned long long)r.client_app.responses,
                (unsigned long long)expect));
        if (r.server_app.accepted != r.client_app.opened)
            r.violations.push_back(strfmt(
                "server accepted %u != client opened %u",
                r.server_app.accepted, r.client_app.opened));
        if (r.server_app.responses != r.server_app.requests)
            r.violations.push_back(strfmt(
                "server answered %llu of %llu requests",
                (unsigned long long)r.server_app.responses,
                (unsigned long long)r.server_app.requests));
        if (r.server_app.responses_acked != r.server_app.responses)
            r.violations.push_back(strfmt(
                "only %llu of %llu responses saw a tagged TxDone",
                (unsigned long long)r.server_app.responses_acked,
                (unsigned long long)r.server_app.responses));
    } else if (r.client_app.responses > r.client_app.requests_sent) {
        // Even under faults a served response is answered once; the
        // digest map can only shrink (aborted conns), never disagree.
        r.violations.push_back("more responses than requests");
    }

    serve.finish(r, server.idle());
    double sim_sec = double(r.end_time) * 1e-12;
    if (sim_sec > 0) {
        r.req_per_sec = double(r.client_app.responses) / sim_sec;
        r.goodput_gbps =
            double(r.client_app.response_bytes) * 8.0 / sim_sec / 1e9;
    }

    // Digest hash: the per-request response digests, in id order.
    uint64_t h = sim::kFnvBasis;
    for (const auto& [id, digest] : r.digests) {
        h = sim::fnv1a64_u64(id, h);
        h = sim::fnv1a64_u64(digest, h);
    }
    r.digest_hash = h;

    // State hash: every observable counter and the exact latency
    // sequence folded in — same-config reruns match bit-for-bit.
    h = sim::fnv1a64_u64(pool.latency_fold(), h);
    for (const driver::FastPathStats* st :
         {&r.client_stats, &r.server_stats}) {
        h = sim::fnv1a64_u64(st->frames_tx, h);
        h = sim::fnv1a64_u64(st->frames_rx, h);
        h = sim::fnv1a64_u64(st->segments_sent, h);
        h = sim::fnv1a64_u64(st->segments_received, h);
        h = sim::fnv1a64_u64(st->retransmits, h);
        h = sim::fnv1a64_u64(st->pure_acks_sent, h);
        h = sim::fnv1a64_u64(st->tx_descs, h);
        h = sim::fnv1a64_u64(st->rx_descs, h);
        h = sim::fnv1a64_u64(st->tx_done_descs, h);
        h = sim::fnv1a64_u64(st->tagged_tx_done_descs, h);
        h = sim::fnv1a64_u64(st->rx_ring_stalls, h);
        h = sim::fnv1a64_u64(st->driver_backpressure, h);
    }
    h = sim::fnv1a64_u64(r.client_app.opened, h);
    h = sim::fnv1a64_u64(r.client_app.closed, h);
    h = sim::fnv1a64_u64(r.client_app.aborted, h);
    h = sim::fnv1a64_u64(r.client_app.requests_sent, h);
    h = sim::fnv1a64_u64(r.client_app.responses, h);
    h = sim::fnv1a64_u64(r.server_app.requests, h);
    h = sim::fnv1a64_u64(r.server_app.responses, h);
    h = sim::fnv1a64_u64(r.server_app.responses_acked, h);
    h = sim::fnv1a64_u64(r.dispatch.dispatched, h);
    h = sim::fnv1a64_u64(uint64_t(r.dispatch.busy_time), h);
    h = sim::fnv1a64_u64(r.faults.total(), h);
    h = sim::fnv1a64_u64(r.ledger.tx, h);
    h = sim::fnv1a64_u64(r.ledger.rx, h);
    h = sim::fnv1a64_u64(uint64_t(r.end_time), h);
    r.state_hash = h;

    return r;
}

} // namespace fld::apps
