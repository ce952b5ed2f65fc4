/**
 * @file
 * Self-test of the benchmark's own analysis code: the stage joiner on
 * synthetic trace events, and the symbol -> module table on fixture
 * demangled names.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "modules.h"
#include "stages.h"

namespace fld::e2e {
namespace {

using K = sim::TraceEventKind;

sim::TraceEvent
ev(sim::TimePs t, K kind, std::string actor, const char* detail,
   uint64_t corr, uint32_t queue = 0, uint32_t index = 0,
   uint32_t count = 1)
{
    sim::TraceEvent e;
    e.time = t;
    e.kind = kind;
    e.actor = std::move(actor);
    e.detail = detail;
    e.corr = corr;
    e.queue = queue;
    e.index = index;
    e.count = count;
    return e;
}

/**
 * Every event of one echoed frame. The client posts WQE @p client_pi
 * on SQ 1 (doorbell publishing client_pi + 1), the server posts
 * @p server_pi on SQ 7; stamps start at @p t0 and step by 10 ns.
 * @p skip drops the event with that position, to fake a lost stage.
 */
std::vector<sim::TraceEvent>
lifecycle(uint64_t corr, sim::TimePs t0, uint32_t client_pi,
          uint32_t server_pi, int skip = -1)
{
    constexpr sim::TimePs kStep = 10'000;
    std::vector<sim::TraceEvent> v;
    sim::TimePs t = t0;
    auto add = [&](K kind, const char* actor, const char* detail,
                   uint32_t q = 0, uint32_t index = 0) {
        v.push_back(ev(t, kind, actor, detail, corr, q, index));
        t += kStep;
    };
    add(K::DoorbellWrite, "client.nic", "sq", 1, client_pi + 1);
    v.back().corr = 0;
    add(K::WqeFetch, "client.nic", "sq", 1, client_pi);
    v.back().corr = 0;
    add(K::PayloadRead, "client.nic", "eth", 1, client_pi & 0xffff);
    add(K::WireTx, "client.nic.uplink", "frame");
    add(K::WireRx, "server.nic.uplink", "frame");
    add(K::PayloadWrite, "server.nic", "eth");
    add(K::CqeWrite, "server.nic", "Rx");
    add(K::DoorbellWrite, "server.nic", "sq", 7, server_pi + 1);
    v.back().corr = 0;
    add(K::WqeFetch, "server.nic", "sq", 7, server_pi);
    v.back().corr = 0;
    add(K::PayloadRead, "server.nic", "eth", 7, server_pi & 0xffff);
    add(K::WireTx, "server.nic.uplink", "frame");
    add(K::WireRx, "client.nic.uplink", "frame");
    add(K::PayloadWrite, "client.nic", "eth");
    add(K::CqeWrite, "client.nic", "Rx");
    if (skip >= 0)
        v.erase(v.begin() + skip);
    return v;
}

TEST(StageJoiner, JoinsEveryStageOfBothDirections)
{
    StageJoiner j("client.nic", "server.nic");
    j.consume(lifecycle(5, 0, 0, 0));
    EXPECT_EQ(j.echoed(), 1u);
    EXPECT_EQ(j.complete(), 1u);
    EXPECT_DOUBLE_EQ(j.coverage(), 1.0);
    for (size_t d = 0; d < kDirections.size(); ++d)
        for (size_t s = 0; s < kStages.size(); ++s)
            EXPECT_NEAR(j.quantile_us(d, s, 0.5), 0.01, 1e-12)
                << kDirections[d] << " " << kStages[s];
}

TEST(StageJoiner, DoorbellIndexWrapsAcrossTheCounter)
{
    StageJoiner j("client.nic", "server.nic");
    // Bring the client SQ's producer counter to 2^32 - 2 ...
    j.consume({ev(0, K::DoorbellWrite, "client.nic", "sq", 0, 1,
                  0xfffffffeu)});
    // ... then publish four WQEs across the wrap, fetch them in one
    // read and send the one at 32-bit index 1 (16-bit ring index 1).
    std::vector<sim::TraceEvent> v = lifecycle(9, 1'000'000, 1, 3);
    v[0].index = 2; // the doorbell publishes 0xfffffffe .. 1
    v[1].index = 0xfffffffeu; // one fetch of all four
    v[1].count = 4;
    j.consume(v);
    EXPECT_EQ(j.complete(), 1u);
    EXPECT_NEAR(j.quantile_us(0, 0, 0.5), 0.01, 1e-12); // db_to_fetch
}

TEST(StageJoiner, MissingStageLowersCoverage)
{
    StageJoiner j("client.nic", "server.nic");
    j.consume(lifecycle(1, 0, 0, 0));
    j.consume(lifecycle(2, 1'000'000, 1, 1, /*skip WireRx c2s*/ 4));
    EXPECT_EQ(j.echoed(), 2u);
    EXPECT_EQ(j.complete(), 1u);
    EXPECT_DOUBLE_EQ(j.coverage(), 0.5);
}

TEST(StageJoiner, LifecycleSplitAcrossDrainChunks)
{
    StageJoiner j("client.nic", "server.nic");
    std::vector<sim::TraceEvent> v = lifecycle(3, 0, 0, 0);
    std::vector<sim::TraceEvent> first(v.begin(), v.begin() + 6);
    std::vector<sim::TraceEvent> second(v.begin() + 6, v.end());
    j.consume(first);
    EXPECT_EQ(j.echoed(), 0u);
    j.consume(second);
    EXPECT_EQ(j.echoed(), 1u);
    EXPECT_EQ(j.complete(), 1u);
}

TEST(StageJoiner, IgnoresUnknownActorsAndEmptyHistograms)
{
    StageJoiner j("client.nic", "server.nic");
    j.consume({ev(0, K::CqeWrite, "other.nic", "Rx", 4)});
    EXPECT_EQ(j.echoed(), 0u);
    EXPECT_DOUBLE_EQ(j.coverage(), 0.0);
    EXPECT_TRUE(std::isnan(j.quantile_us(0, 0, 0.5)));
}

TEST(Modules, MoveFunctionThunkCountsTowardTheWrappedLambda)
{
    EXPECT_EQ(module_of("void fld::sim::MoveFunction<void ()>::"
                        "invoke_destroy<fld::nic::NicDevice::doorbell_sq("
                        "unsigned int, unsigned int)::{lambda()#1}>(void*)"),
              "nic");
    // GCC's name for the per-callable thunk omits the callable; the
    // file it was instantiated in decides.
    const char* thunk =
        "fld::sim::MoveFunction<void ()>::{lambda(void*)#16}::_FUN(void*)";
    EXPECT_EQ(module_of(thunk, "nic"), "nic");
    EXPECT_EQ(module_of(thunk), "sim");
}

TEST(Modules, LambdasCountTowardTheirDefiningFunction)
{
    EXPECT_EQ(module_of("fld::pcie::PcieFabric::read(unsigned int)::"
                        "{lambda()#2}::operator()() const"),
              "pcie");
    EXPECT_EQ(module_of("std::_Function_handler<void (unsigned int, "
                        "fld::net::Packet&&), fld::apps::PacketGen::"
                        "PacketGen(fld::sim::EventQueue&)::{lambda(unsigned "
                        "int, fld::net::Packet&&)#1}>::_M_invoke(std::"
                        "_Any_data const&, unsigned int&&, fld::net::"
                        "Packet&&)"),
              "loadgen");
}

TEST(Modules, NamespacesMapToModules)
{
    EXPECT_EQ(module_of("fld::apps::PacketGen::on_rx(fld::net::Packet&&)"),
              "loadgen");
    EXPECT_EQ(module_of("fld::sim::ChurnGen::next()"), "loadgen");
    EXPECT_EQ(module_of("fld::apps::RpcDispatcher::dispatch()"), "apps");
    EXPECT_EQ(module_of("fld::core::CuckooTable::lookup(unsigned long) "
                        "const"),
              "fld");
    EXPECT_EQ(module_of("fld::rpc::FrameDecoder::feed(unsigned char "
                        "const*, unsigned long)"),
              "net");
    EXPECT_EQ(module_of("fld::Rng::next()"), "util");
    EXPECT_EQ(module_of("fld::net::ParsedPacket fld::net::parse(fld::net::"
                        "Packet const&)"),
              "net");
    EXPECT_EQ(module_of("fld::e2e::StageJoiner::consume()"), "bench");
}

TEST(Modules, RuntimeBuckets)
{
    EXPECT_EQ(module_of("malloc"), "alloc");
    EXPECT_EQ(module_of("operator new(unsigned long)"), "alloc");
    EXPECT_EQ(module_of("operator delete(void*, unsigned long)"), "alloc");
    EXPECT_EQ(module_of("std::_Rb_tree<unsigned int, std::pair<unsigned int "
                        "const, fld::nic::SqState>, std::_Select1st<std::"
                        "pair<unsigned int const, fld::nic::SqState> >, "
                        "std::less<unsigned int> >::_M_erase(std::"
                        "_Rb_tree_node<std::pair<unsigned int const, "
                        "fld::nic::SqState> >*)"),
              "stdlib");
    EXPECT_EQ(module_of("void std::vector<fld::net::Packet>::"
                        "_M_realloc_insert<fld::net::Packet>()"),
              "stdlib");
    EXPECT_EQ(module_of("__memmove_avx_unaligned_erms"), "stdlib");
    EXPECT_EQ(module_of(""), "unresolved");
}

TEST(Modules, FunctionScopeDropsReturnTypeAndParameters)
{
    EXPECT_EQ(function_scope("void ns::f<int>(int)::{lambda()#1}::"
                             "operator()() const"),
              "ns::f<int>");
    EXPECT_EQ(function_scope("bool std::operator< <char>(std::string "
                             "const&, std::string const&)"),
              "std::operator< <char>");
}

} // namespace
} // namespace fld::e2e
