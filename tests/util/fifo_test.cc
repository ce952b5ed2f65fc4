/** @file Fifo<T>: order, compaction, iteration and storage release. */
#include "util/fifo.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace fld {
namespace {

std::vector<int>
contents(const Fifo<int>& q)
{
    return std::vector<int>(q.begin(), q.end());
}

TEST(Fifo, NeverUsedOwnsNoHeap)
{
    Fifo<std::string> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 0u);
    EXPECT_EQ(q.begin(), q.end());
}

TEST(Fifo, DrainedOwnsNoHeap)
{
    Fifo<int> q;
    for (int i = 0; i < 100; ++i)
        q.push_back(i);
    EXPECT_GE(q.capacity(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 0u) << "popping the last element frees";

    // Reusable after draining.
    q.push_back(7);
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.back(), 7);
}

TEST(Fifo, ClearDropsEverythingAndReleasesStorage)
{
    auto token = std::make_shared<int>(0);
    Fifo<std::shared_ptr<int>> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(token);
    q.pop_front();
    ASSERT_EQ(token.use_count(), 5);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 0u);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Fifo, PopFrontReleasesTheElementAtOnce)
{
    // A popped element's resources go immediately, not when its slot
    // is next reused or the queue drains.
    auto token = std::make_shared<int>(0);
    Fifo<std::shared_ptr<int>> q;
    q.push_back(token);
    q.push_back(token);
    q.push_back(token);
    ASSERT_EQ(token.use_count(), 4);
    q.pop_front();
    EXPECT_EQ(token.use_count(), 3);
    q.pop_front();
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(q.size(), 1u);
}

TEST(Fifo, IteratesFromTheHead)
{
    Fifo<int> q;
    for (int i = 1; i <= 6; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front();
    EXPECT_EQ(contents(q), (std::vector<int>{3, 4, 5, 6}));
    for (int& v : q)
        v *= 10;
    EXPECT_EQ(q.front(), 30);
    EXPECT_EQ(q.back(), 60);
    EXPECT_EQ(contents(q), (std::vector<int>{30, 40, 50, 60}));
}

TEST(Fifo, CompactionKeepsOrderAndBoundsStorage)
{
    // Keep a steady depth of 3 through many push/pop rounds: popped
    // head slots are reclaimed by compaction instead of growing the
    // storage, and FIFO order survives every compaction.
    Fifo<int> q;
    int next_in = 0, next_out = 0;
    for (; next_in < 3; ++next_in)
        q.push_back(next_in);
    for (int round = 0; round < 10000; ++round) {
        ASSERT_EQ(q.front(), next_out);
        q.pop_front();
        ++next_out;
        q.push_back(next_in++);
        ASSERT_EQ(q.size(), 3u);
        ASSERT_LE(q.capacity(), 8u) << "round " << round;
    }
    EXPECT_EQ(contents(q),
              (std::vector<int>{next_out, next_out + 1, next_out + 2}));
}

TEST(Fifo, RandomOpsMatchDeque)
{
    Rng rng(0xf1f0);
    Fifo<int> q;
    std::deque<int> ref;
    size_t peak = 0;
    for (int step = 0; step < 20000; ++step) {
        // Bias toward pushes in bursts and pops in bursts so the
        // queue repeatedly grows, compacts and drains.
        bool push = ref.empty() || rng.uniform(100) < ((step / 500) % 2
                                                           ? 30
                                                           : 70);
        if (push) {
            q.push_back(step);
            ref.push_back(step);
        } else {
            ASSERT_EQ(q.front(), ref.front());
            q.pop_front();
            ref.pop_front();
        }
        peak = std::max(peak, ref.size());
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(q.front(), ref.front());
            ASSERT_EQ(q.back(), ref.back());
        } else {
            ASSERT_EQ(q.capacity(), 0u);
        }
        ASSERT_LE(q.capacity(), 4 * std::max<size_t>(peak, 1));
    }
    EXPECT_TRUE(std::equal(q.begin(), q.end(), ref.begin(), ref.end()));
}

TEST(Fifo, PushingACopyOfItsOwnElementIsSafe)
{
    // push_back takes its argument by value, so a reference into the
    // queue survives the compaction or growth the push triggers.
    Fifo<std::string> q;
    q.push_back(std::string(64, 'a'));
    for (int i = 0; i < 20; ++i) {
        q.push_back(q.front());
        q.pop_front();
        q.push_back(q.back());
    }
    for (const std::string& s : q)
        EXPECT_EQ(s, std::string(64, 'a'));
}

} // namespace
} // namespace fld
