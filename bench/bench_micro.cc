/**
 * @file
 * Microbenchmarks (google-benchmark) for the performance-critical
 * primitives: the cuckoo translation table, ZUC/SHA-256/HMAC, the
 * Toeplitz hash, checksums, packet parse/build, and IP reassembly.
 */
#include <benchmark/benchmark.h>

#include <functional>
#include <numeric>

#include "crypto/sha256.h"
#include "crypto/zuc.h"
#include "fld/buffer_pool.h"
#include "fld/cuckoo.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/ip_reassembly.h"
#include "net/packet.h"
#include "net/toeplitz.h"
#include "sim/event_queue.h"
#include "util/rng.h"

using namespace fld;

static void
BM_CuckooInsertErase(benchmark::State& state)
{
    core::CuckooTable table(4096);
    uint64_t key = 0;
    // Keep the table at half capacity, FLD steady state.
    for (; key < 2048; ++key)
        table.insert(key, uint32_t(key));
    uint64_t erase_key = 0;
    for (auto _ : state) {
        table.insert(key++, 1);
        table.erase(erase_key++);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooInsertErase);

static void
BM_CuckooLookup(benchmark::State& state)
{
    core::CuckooTable table(4096);
    for (uint64_t key = 0; key < 4096; ++key)
        table.insert(key, uint32_t(key));
    uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(key % 4096));
        ++key;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooLookup);

static void
BM_TxBufferPoolAllocFree(benchmark::State& state)
{
    core::TxBufferPool pool(256 * 1024, 2, 256 * 1024);
    for (auto _ : state) {
        auto v = pool.alloc(0, 1500);
        benchmark::DoNotOptimize(v);
        pool.free_oldest(0);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxBufferPoolAllocFree);

static void
BM_ZucKeystream(benchmark::State& state)
{
    crypto::Zuc::Key key{};
    crypto::Zuc::Iv iv{};
    crypto::Zuc zuc(key, iv);
    for (auto _ : state)
        benchmark::DoNotOptimize(zuc.next());
    state.SetBytesProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ZucKeystream);

static void
BM_Eea3Encrypt(benchmark::State& state)
{
    crypto::Zuc::Key key{};
    std::vector<uint8_t> data(size_t(state.range(0)));
    std::iota(data.begin(), data.end(), 0);
    for (auto _ : state) {
        crypto::eea3_crypt(key, 1, 2, 0, data.data(), data.size() * 8);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Eea3Encrypt)->Arg(64)->Arg(512)->Arg(4096);

static void
BM_Eia3Mac(benchmark::State& state)
{
    crypto::Zuc::Key key{};
    std::vector<uint8_t> data(size_t(state.range(0)), 0x5a);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::eia3_mac(
            key, 1, 2, 0, data.data(), data.size() * 8));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Eia3Mac)->Arg(64)->Arg(512);

static void
BM_HmacSha256(benchmark::State& state)
{
    std::vector<uint8_t> key(32, 0x0b);
    std::vector<uint8_t> data(size_t(state.range(0)), 0xa5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::hmac_sha256(
            key.data(), key.size(), data.data(), data.size()));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(512)->Arg(4096);

static void
BM_InternetChecksum(benchmark::State& state)
{
    std::vector<uint8_t> data(size_t(state.range(0)), 0x3c);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            net::internet_checksum(data.data(), data.size()));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500);

static void
BM_ToeplitzHash(benchmark::State& state)
{
    const auto& key = net::default_rss_key();
    uint32_t sport = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net::toeplitz_ipv4(
            key, 0x0a000001, 0x0a000002, uint16_t(sport++), 5201));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ToeplitzHash);

static void
BM_PacketBuildParse(benchmark::State& state)
{
    std::vector<uint8_t> payload(1000, 0x77);
    for (auto _ : state) {
        net::Packet pkt = net::PacketBuilder()
                              .eth({2, 0, 0, 0, 0, 1},
                                   {2, 0, 0, 0, 0, 2})
                              .ipv4(1, 2, net::kIpProtoUdp)
                              .udp(3, 4)
                              .payload(payload)
                              .build();
        benchmark::DoNotOptimize(net::parse(pkt));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketBuildParse);

static void
BM_EventQueueScheduleRun(benchmark::State& state)
{
    // The simulator's innermost loop: schedule a batch of events with
    // small captures (the shape of every datapath hop) and drain them.
    // Measures scheduling-side allocation plus the per-event execute
    // cost of the queue itself.
    sim::EventQueue eq;
    constexpr int kBatch = 1024;
    uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBatch; ++i) {
            eq.schedule_in(sim::TimePs(i % 7),
                           [&sink, i] { sink += uint64_t(i); });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_TimingWheel(benchmark::State& state)
{
    // Fastpath-like delay mix: a standing population of timers
    // re-arming at wire/DMA horizons (2^14..2^21 ps) with a 2%
    // RTO-scale tail.
    sim::EventQueue eq;
    constexpr int kPopulation = 512;
    uint64_t rng = 0x2545f4914f6cdd1dull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    uint64_t fired = 0;
    struct Timer
    {
        sim::EventQueue& eq;
        decltype(next)& rnd;
        uint64_t& fired;
        void arm()
        {
            sim::TimePs delay =
                (rnd() % 100 < 2)
                    ? sim::microseconds(50)
                    : sim::TimePs(1) << (14 + rnd() % 8);
            eq.schedule_in(delay, [this] {
                ++fired;
                arm();
            });
        }
    };
    std::vector<Timer> timers(kPopulation, Timer{eq, next, fired});
    for (Timer& t : timers)
        t.arm();
    for (auto _ : state) {
        uint64_t target = fired + 4096;
        while (fired < target)
            eq.run_until(eq.now() + sim::microseconds(2));
        benchmark::DoNotOptimize(fired);
    }
    eq.clear();
    state.SetItemsProcessed(int64_t(fired));
}
BENCHMARK(BM_TimingWheel);

static void
BM_PacketPipelineCopy(benchmark::State& state)
{
    // A frame hopping through scheduled pipeline stages by move, the
    // way wire -> NIC -> fabric -> driver hand packets around. Any
    // hidden per-hop payload copy inside the event queue shows up
    // directly in the bytes/sec figure.
    sim::EventQueue eq;
    const size_t frame = size_t(state.range(0));
    constexpr int kHops = 8;
    uint64_t sink = 0;
    std::function<void(net::Packet&&, int)> hop =
        [&](net::Packet&& p, int hops_left) {
            if (hops_left == 0) {
                sink += p.size();
                return;
            }
            eq.schedule_in(1, [&hop, hops_left,
                               p = std::move(p)]() mutable {
                hop(std::move(p), hops_left - 1);
            });
        };
    for (auto _ : state) {
        net::Packet pkt(std::vector<uint8_t>(frame, 0xab));
        hop(std::move(pkt), kHops);
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetBytesProcessed(state.iterations() * int64_t(frame) *
                            kHops);
}
BENCHMARK(BM_PacketPipelineCopy)->Arg(64)->Arg(1500)->Arg(9000);

static void
BM_IpFragmentReassemble(benchmark::State& state)
{
    std::vector<uint8_t> payload(3000);
    std::iota(payload.begin(), payload.end(), 0);
    net::Packet pkt = net::PacketBuilder()
                          .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
                          .ipv4(1, 2, net::kIpProtoUdp, 1)
                          .udp(3, 4)
                          .payload(payload)
                          .build();
    net::IpReassembler reasm;
    uint16_t id = 0;
    for (auto _ : state) {
        net::Ipv4Header ih =
            net::Ipv4Header::decode(pkt.bytes() + net::kEthHeaderLen);
        ih.id = ++id;
        ih.encode(pkt.bytes() + net::kEthHeaderLen, true);
        for (auto& frag : net::ip_fragment(pkt, 1450))
            benchmark::DoNotOptimize(reasm.push(frag));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IpFragmentReassemble);
