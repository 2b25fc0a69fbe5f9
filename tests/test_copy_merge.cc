/**
 * @file
 * Tests for the copy-and-merge FSMs (Figure 9): replication at
 * divergence, per-sub-path holds at convergence, single merged
 * packet emission, and blocking of requests that follow a copy.
 */

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "noc/copy_merge.hh"
#include "noc/pipe_stage.hh"

namespace olight
{
namespace
{

class RecordingSink : public AcceptPort
{
  public:
    bool
    tryReserve(const Packet &) override
    {
        if (credits == 0)
            return false;
        --credits;
        return true;
    }

    void
    deliver(Packet pkt, Tick) override
    {
        arrivals.push_back(pkt);
    }

    void
    enqueueWaiter(const Packet &, PortWaiter &w) override
    {
        waiters.enqueue(w);
    }

    void
    release(std::uint32_t n)
    {
        credits += n;
        waiters.wakeAll();
    }

    std::uint32_t credits = 1u << 30;
    std::vector<Packet> arrivals;
    WaiterList waiters;
};

using Merge = ConvergencePoint<RecordingSink>;
using Path = PipeStage<Merge::Input>;
using Split = DivergencePoint<Path>;

Packet
request(std::uint64_t id, std::uint64_t addr)
{
    Packet pkt;
    pkt.id = id;
    pkt.instr.addr = addr;
    return pkt;
}

Packet
marker(std::uint32_t number)
{
    Packet pkt;
    pkt.kind = PacketKind::OrderLight;
    pkt.ol.pktNumber = number;
    return pkt;
}

struct CopyMergeFixture : public ::testing::Test
{
    static constexpr std::uint32_t numPaths = 2;

    CopyMergeFixture()
    {
        PipeParams params;
        params.capacity = 8;
        for (std::uint32_t i = 0; i < numPaths; ++i)
            paths.push_back(std::make_unique<Path>(
                eq, "p" + std::to_string(i), params, stats));
        std::vector<Path *> ptrs;
        for (auto &p : paths)
            ptrs.push_back(p.get());
        div = std::make_unique<Split>(
            "div", ptrs,
            [](const Packet &pkt) {
                return std::uint32_t((pkt.instr.addr / 32) %
                                     numPaths);
            },
            stats);
        conv = std::make_unique<Merge>(eq, "conv", numPaths, stats);
        for (std::uint32_t i = 0; i < numPaths; ++i)
            paths[i]->setDownstream(&conv->input(i));
        conv->setDownstream(&sink);
    }

    void
    send(Packet pkt)
    {
        ASSERT_TRUE(div->tryReserve(pkt));
        div->deliver(std::move(pkt), eq.now());
    }

    EventQueue eq;
    StatSet stats;
    std::vector<std::unique_ptr<Path>> paths;
    std::unique_ptr<Split> div;
    std::unique_ptr<Merge> conv;
    RecordingSink sink;
};

TEST_F(CopyMergeFixture, RequestsRouteBySubPath)
{
    send(request(1, 0));   // path 0
    send(request(2, 32));  // path 1
    send(request(3, 64));  // path 0
    eq.run();
    EXPECT_EQ(sink.arrivals.size(), 3u);
}

TEST_F(CopyMergeFixture, MarkerIsReplicatedAndMergedOnce)
{
    send(marker(0));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u)
        << "exactly one merged packet must emerge";
    EXPECT_TRUE(sink.arrivals[0].isOrderLight());
    EXPECT_EQ(stats.findScalar("div.olCopies")->value(), 2.0);
    EXPECT_EQ(stats.findScalar("conv.olMerges")->value(), 1.0);
    EXPECT_TRUE(conv->idle());
}

TEST_F(CopyMergeFixture, MergedMarkerOrdersAfterPredecessors)
{
    send(request(1, 0));
    send(request(2, 32));
    send(marker(0));
    send(request(3, 0));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 4u);
    EXPECT_FALSE(sink.arrivals[0].isOrderLight());
    EXPECT_FALSE(sink.arrivals[1].isOrderLight());
    EXPECT_TRUE(sink.arrivals[2].isOrderLight());
    EXPECT_EQ(sink.arrivals[3].id, 3u)
        << "a request after the marker cannot overtake it";
}

TEST_F(CopyMergeFixture, FollowerOnHeldPathWaitsForMerge)
{
    // Stall path 1 by filling it with slow traffic is hard to do
    // directly; instead block the sink so the first copies park the
    // paths, then check nothing leaks before the merge completes.
    sink.credits = 0;
    send(request(1, 0));
    send(marker(0));
    send(request(2, 0));
    send(request(3, 32));
    eq.run();
    EXPECT_TRUE(sink.arrivals.empty());

    sink.release(100);
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 4u);
    EXPECT_EQ(sink.arrivals[0].id, 1u);
    EXPECT_TRUE(sink.arrivals[1].isOrderLight());
}

TEST_F(CopyMergeFixture, BackToBackMarkersMergeInOrder)
{
    send(marker(0));
    send(request(1, 0));
    send(marker(1));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 3u);
    EXPECT_TRUE(sink.arrivals[0].isOrderLight());
    EXPECT_EQ(sink.arrivals[0].ol.pktNumber, 0u);
    EXPECT_EQ(sink.arrivals[1].id, 1u);
    EXPECT_TRUE(sink.arrivals[2].isOrderLight());
    EXPECT_EQ(sink.arrivals[2].ol.pktNumber, 1u);
    EXPECT_EQ(stats.findScalar("conv.olMerges")->value(), 2.0);
}

TEST_F(CopyMergeFixture, MarkerReservationIsAllOrNothing)
{
    // Fill path 0 to capacity with requests so the marker cannot
    // reserve all sub-paths.
    sink.credits = 0;
    for (std::uint64_t i = 0; i < 8; ++i)
        send(request(i, 0)); // all to path 0
    eq.run();
    Packet m = marker(0);
    EXPECT_FALSE(div->tryReserve(m));
    // Path 1 must not have a stranded copy: release the sink and
    // verify only the 8 requests flow out.
    sink.release(100);
    eq.run();
    EXPECT_EQ(sink.arrivals.size(), 8u);
    EXPECT_TRUE(div->tryReserve(m));
}

/** Regression: a stalled marker used to subscribe its retry on
 *  *every* full sub-path, so one stall produced one wakeup per path
 *  as they drained. The intrusive waiter parks on exactly one path
 *  and must fire exactly once. */
TEST_F(CopyMergeFixture, StalledMarkerWakesExactlyOnce)
{
    // Fill BOTH sub-paths to capacity while the sink is blocked.
    sink.credits = 0;
    for (std::uint64_t i = 0; i < 8; ++i)
        send(request(100 + i, 0)); // path 0
    for (std::uint64_t i = 0; i < 8; ++i)
        send(request(200 + i, 32)); // path 1
    eq.run();

    Packet m = marker(0);
    ASSERT_FALSE(div->tryReserve(m))
        << "both sub-paths must be full";

    int wakeups = 0;
    PortWaiter waiter([](void *n) { ++*static_cast<int *>(n); },
                      &wakeups);
    div->enqueueWaiter(m, waiter);

    // Drain everything: both paths release credits repeatedly; the
    // old multi-path subscription fired once per draining path.
    sink.release(100);
    eq.run();
    EXPECT_EQ(sink.arrivals.size(), 16u);
    EXPECT_EQ(wakeups, 1)
        << "one stall must produce exactly one wakeup";
    EXPECT_FALSE(waiter.linked());
    EXPECT_TRUE(div->tryReserve(m));
}

/** OrderLight copies reach the convergence point through an event
 *  whose [this, path, Packet] capture must ride inline in the
 *  callback: in steady state, replicating and merging markers
 *  allocates nothing. */
TEST_F(CopyMergeFixture, OrderLightCopiesAllocateNothingInSteadyState)
{
    sink.arrivals.reserve(64);
    std::uint32_t number = 0;
    auto round = [&] {
        for (int k = 0; k < 4; ++k) {
            send(marker(number++));
            send(request(number, 32 * number));
        }
        eq.run();
        sink.arrivals.clear();
    };
    round(); // warm-up: heap, slab and pipe storage reach their depth

    const std::uint64_t before = test_alloc::newCount();
    for (int r = 0; r < 64; ++r)
        round();
    EXPECT_EQ(test_alloc::newCount() - before, 0u)
        << "OrderLight copies must not allocate";
    EXPECT_EQ(stats.findScalar("div.olCopies")->value(),
              double(numPaths * number));
    EXPECT_EQ(stats.findScalar("conv.olMerges")->value(),
              double(number));
}

} // namespace
} // namespace olight
