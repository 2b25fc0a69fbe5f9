/** @file Unit tests for the discrete-event core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "alloc_counter.hh"
#include "sim/event_queue.hh"

namespace olight
{
namespace
{

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.numExecuted(), 3u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); },
                EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(2); },
                EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(0); },
                EventPriority::DramTiming);
    eq.schedule(5, [&] { order.push_back(3); },
                EventPriority::Wakeup);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
    eq.schedule(0, [] {});
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

/** A running callback that schedules more than a slab chunk of
 *  events grows the slab under itself; chunks never move, so its own
 *  captures must still read back intact afterwards. */
TEST(EventQueueSlab, RunningCallbackKeepsCapturesWhileSlabGrows)
{
    struct Ctx
    {
        EventQueue eq{1};
        std::size_t fired = 0;
        bool intact = false;
    } ctx;
    using Payload = std::array<std::uint64_t, 12>;
    Payload payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = 0x1234567800000000ull + i;
    constexpr std::size_t children = 3 * CallbackSlab::kChunkSlots + 5;
    // [pointer, 96 B payload]: 104 bytes, held inline in its slot.
    Ctx *c = &ctx;
    ctx.eq.schedule(1, [c, payload] {
        for (std::size_t i = 0; i < children; ++i)
            c->eq.schedule(2 + i, [c] { ++c->fired; });
        Payload expect{};
        for (std::size_t i = 0; i < expect.size(); ++i)
            expect[i] = 0x1234567800000000ull + i;
        c->intact = payload == expect;
    });
    ctx.eq.run();
    EXPECT_TRUE(ctx.intact);
    EXPECT_EQ(ctx.fired, children);
    EXPECT_GT(ctx.eq.heapRegrows(), 0u) << "the slab had to grow";
}

/** Callbacks still pending when the queue dies are destroyed exactly
 *  once, as are those that ran (ref-counted sentinel). */
TEST(EventQueueSlab, PendingCallbacksDestroyedOnceWithTheQueue)
{
    auto sentinel = std::make_shared<int>(5);
    {
        EventQueue eq(4);
        for (Tick t = 1; t <= 2 * CallbackSlab::kChunkSlots; ++t)
            eq.schedule(t, [keep = sentinel] { (void)*keep; });
        EXPECT_EQ(sentinel.use_count(),
                  long(1 + 2 * CallbackSlab::kChunkSlots));
        eq.run(CallbackSlab::kChunkSlots);
        EXPECT_EQ(sentinel.use_count(),
                  long(1 + CallbackSlab::kChunkSlots));
    }
    EXPECT_EQ(sentinel.use_count(), 1);
}

/** A seeded random schedule, with random (stamp, source, rank)
 *  through ExternalScope and events scheduling more events, pops in
 *  the order of sorting on (when, prio, stamp, src, dom, seq). */
TEST(EventQueueSlab, RandomSchedulePopsInCanonicalKeyOrder)
{
    using KeyTuple = std::tuple<Tick, int, Tick, int, int, std::uint64_t>;
    EventQueue eq(8);
    std::mt19937_64 rng(20211018);
    std::vector<KeyTuple> keys;
    std::vector<std::size_t> popped;
    const EventPriority prios[] = {
        EventPriority::DramTiming, EventPriority::Default,
        EventPriority::Wakeup, EventPriority::Stats};

    // Sequence numbers count every schedule into the queue, in order.
    std::uint64_t seq = 0;
    auto add = [&](Tick when, auto &&self) -> void {
        const Tick stamp = rng() % 64;
        const int src = int(rng() % 4), dom = int(rng() % 4);
        const int p = int(rng() % 4);
        const std::size_t id = keys.size();
        keys.emplace_back(when, static_cast<int>(prios[p]), stamp, src,
                          dom, seq++);
        EventQueue::ExternalScope scope(eq, stamp, std::uint16_t(src),
                                        std::uint16_t(dom));
        // Half the events schedule a follow-up while running, always
        // at a later tick, so every key enters above the one popped.
        const bool spawn = id < 2000 && rng() % 2;
        eq.schedule(
            when,
            [&, id, spawn, self] {
                popped.push_back(id);
                if (spawn)
                    self(eq.now() + 1 + rng() % 8, self);
            },
            prios[p]);
    };
    for (int i = 0; i < 500; ++i)
        add(rng() % 100, add);
    eq.run();

    std::vector<std::size_t> expect(keys.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        expect[i] = i;
    std::sort(expect.begin(), expect.end(),
              [&](std::size_t a, std::size_t b) {
                  return keys[a] < keys[b];
              });
    EXPECT_GT(keys.size(), 700u);
    EXPECT_EQ(popped, expect);
}

/** Once the heap and slab reach their high-water marks, scheduling
 *  and running events with pipe-sized captures allocates nothing. */
TEST(EventQueueSlab, SteadyStateSchedulingAllocatesNothing)
{
    EventQueue eq(4);
    std::array<char, 96> capture{};
    capture[0] = 1;
    std::uint64_t sum = 0;
    auto round = [&] {
        for (Tick i = 0; i < 3 * CallbackSlab::kChunkSlots; ++i)
            eq.scheduleIn(1 + i % 7, [&sum, capture] { sum += capture[0]; });
        eq.scheduleAt(eq.now() + 3, [](void *) {}, nullptr);
        eq.run();
    };
    round(); // warm-up: heap and slab reach their depth
    const std::uint64_t before = test_alloc::newCount();
    for (int r = 0; r < 50; ++r)
        round();
    EXPECT_EQ(test_alloc::newCount() - before, 0u)
        << "steady-state scheduling must not allocate";
    EXPECT_EQ(sum, 51u * 3 * CallbackSlab::kChunkSlots);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "scheduled in the past");
}

TEST(EventQueueDeath, PastSchedulingIsFatalInRelease)
{
    // The guard is olight_fatal (clean exit 1, active in release
    // builds), not an NDEBUG-stripped assert or an abort().
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_EXIT(eq.schedule(5, [] {}),
                ::testing::ExitedWithCode(1), "scheduled in the past");
    EXPECT_EXIT(eq.scheduleAt(5, [](void *) {}, nullptr),
                ::testing::ExitedWithCode(1), "scheduled in the past");
}

TEST(ClockTypes, CycleTickConversions)
{
    EXPECT_EQ(coreClock.cyclesToTicks(10), 10 * corePeriod);
    EXPECT_EQ(memClock.cyclesToTicks(10), 10 * memPeriod);
    EXPECT_EQ(coreClock.ticksToCycles(3 * corePeriod + 5), 3u);
}

TEST(ClockTypes, EdgeAlignment)
{
    EXPECT_EQ(coreClock.nextEdge(0), 0u);
    EXPECT_EQ(coreClock.nextEdge(1), corePeriod);
    EXPECT_EQ(coreClock.nextEdge(corePeriod), corePeriod);
    EXPECT_EQ(coreClock.edgeAfter(corePeriod), 2 * corePeriod);
    EXPECT_EQ(memClock.nextEdge(memPeriod + 1), 2 * memPeriod);
}

TEST(ClockTypes, ExactFrequencyRatio)
{
    // 1200 MHz : 850 MHz == 24 : 17, so periods are 17 and 24 ticks.
    EXPECT_EQ(corePeriod * 24u, memPeriod * 17u);
    // 1 ms at 1200 MHz is 1.2e6 core cycles.
    double ms = ticksToMs(Tick(1.2e6) * corePeriod);
    EXPECT_NEAR(ms, 1.0, 1e-9);
}

} // namespace
} // namespace olight
