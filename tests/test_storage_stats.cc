/** @file Unit tests for SparseMemory, StatSet, Rng, and logging. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "dram/storage.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace olight
{
namespace
{

TEST(SparseMemory, ZeroOnFirstTouch)
{
    SparseMemory mem;
    EXPECT_EQ(mem.readFloat(0x1000), 0.0f);
    EXPECT_EQ(mem.readU32(0xdeadbe0), 0u);
    EXPECT_EQ(mem.numBlocks(), 0u);
}

TEST(SparseMemory, ReadWriteRoundTrip)
{
    SparseMemory mem;
    mem.writeFloat(0x40, 3.5f);
    EXPECT_EQ(mem.readFloat(0x40), 3.5f);
    mem.writeU32(0x44, 0xabcdef01u);
    EXPECT_EQ(mem.readU32(0x44), 0xabcdef01u);
    EXPECT_EQ(mem.readFloat(0x40), 3.5f);
}

TEST(SparseMemory, UnalignedCrossBlockAccess)
{
    SparseMemory mem;
    std::uint8_t data[100];
    for (int i = 0; i < 100; ++i)
        data[i] = std::uint8_t(i);
    mem.write(0x3e, data, 100); // crosses several 32 B blocks
    std::uint8_t out[100] = {};
    mem.read(0x3e, out, 100);
    EXPECT_EQ(std::memcmp(data, out, 100), 0);
    // Bytes around the region stay zero.
    std::uint8_t b;
    mem.read(0x3d, &b, 1);
    EXPECT_EQ(b, 0);
}

TEST(SparseMemory, BulkFloatHelpers)
{
    SparseMemory mem;
    std::vector<float> vals = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    mem.writeFloats(0x100, vals);
    EXPECT_EQ(mem.readFloats(0x100, 9), vals);
}

TEST(SparseMemory, UnalignedAccessAcrossPages)
{
    SparseMemory mem;
    constexpr std::size_t n = 2 * SparseMemory::pageBytes + 77;
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = std::uint8_t(i * 7 + 3);
    const std::uint64_t addr = 5 * SparseMemory::pageBytes - 13;
    mem.write(addr, data.data(), n); // spans four pages
    EXPECT_EQ(mem.numBlocks(),
              4u * SparseMemory::pageBytes / SparseMemory::blockBytes);
    std::vector<std::uint8_t> out(n);
    mem.read(addr, out.data(), n);
    EXPECT_EQ(out, data);
    // Blocks see the same bytes, and the neighbours stay zero.
    const auto &blk = mem.blockOrZero(5 * SparseMemory::pageBytes);
    EXPECT_EQ(std::memcmp(blk.data(), data.data() + 13, 32), 0);
    std::uint8_t before = 0xff, after = 0xff;
    mem.read(addr - 1, &before, 1);
    mem.read(addr + n, &after, 1);
    EXPECT_EQ(before, 0);
    EXPECT_EQ(after, 0);
}

TEST(SparseMemory, ReadsOfUntouchedMemoryAllocateNothing)
{
    SparseMemory mem;
    std::vector<std::uint8_t> out(3 * SparseMemory::pageBytes, 0xaa);
    mem.read(0x7ff0'0000'0000, out.data(), out.size());
    for (std::uint8_t b : out)
        ASSERT_EQ(b, 0);
    EXPECT_EQ(mem.blockOrZero(0x40000).size(), SparseMemory::blockBytes);
    EXPECT_EQ(mem.readFloats(0x123400, 2000),
              std::vector<float>(2000, 0.0f));
    EXPECT_EQ(mem.numBlocks(), 0u);

    // A write to one page backs exactly that page; reading its
    // neighbour still allocates nothing.
    mem.writeU32(0x40004, 9);
    EXPECT_EQ(mem.readU32(0x41004), 0u);
    EXPECT_EQ(mem.numBlocks(),
              SparseMemory::pageBytes / SparseMemory::blockBytes);
}

TEST(SparseMemory, CopiesAreIndependent)
{
    SparseMemory a;
    a.writeFloat(0x100, 1.5f);
    a.writeFloat(0x9'0000'1000, 2.5f);
    SparseMemory b(a);
    EXPECT_EQ(b.readFloat(0x100), 1.5f);
    EXPECT_EQ(b.readFloat(0x9'0000'1000), 2.5f);
    EXPECT_EQ(b.numBlocks(), a.numBlocks());

    b.writeFloat(0x100, 7.0f);
    a.writeFloat(0x9'0000'1000, 8.0f);
    a.writeFloat(0x5000, 3.0f);
    EXPECT_EQ(a.readFloat(0x100), 1.5f);
    EXPECT_EQ(b.readFloat(0x9'0000'1000), 2.5f);
    EXPECT_EQ(b.readFloat(0x5000), 0.0f);

    SparseMemory c;
    c.writeFloat(0x200, 4.0f);
    c = a;
    EXPECT_EQ(c.readFloat(0x200), 0.0f);
    EXPECT_EQ(c.readFloat(0x5000), 3.0f);
    c.block(0x5000)[0] = 0;
    EXPECT_EQ(a.readFloat(0x5000), 3.0f);
}

/** The channel-partitioned pattern: several threads first-touch the
 *  same pages at once, each writing its own disjoint 32 B blocks (the
 *  256 B channel interleave puts every channel in every page). Each
 *  page is created once and no write is lost. Runs under the
 *  partitioned_tsan filter. */
TEST(PartitionedStorage, ConcurrentFirstTouchOfSharedPages)
{
    SparseMemory mem;
    constexpr unsigned threads = 4;
    constexpr std::uint64_t pages = 8;
    constexpr std::uint64_t blocksPerPage =
        SparseMemory::pageBytes / SparseMemory::blockBytes;
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&mem, &go, t] {
            while (!go.load())
                std::this_thread::yield();
            for (std::uint64_t b = t; b < pages * blocksPerPage;
                 b += threads) {
                auto &blk = mem.block(0x10'0000 +
                                      b * SparseMemory::blockBytes);
                blk.fill(std::uint8_t(1 + b % 251));
            }
        });
    go.store(true);
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(mem.numBlocks(), pages * blocksPerPage);
    for (std::uint64_t b = 0; b < pages * blocksPerPage; ++b) {
        const auto &blk =
            mem.blockOrZero(0x10'0000 + b * SparseMemory::blockBytes);
        ASSERT_EQ(blk[0], std::uint8_t(1 + b % 251)) << b;
        ASSERT_EQ(blk[31], std::uint8_t(1 + b % 251)) << b;
    }
}

TEST(SparseMemoryDeath, UnalignedBlockPanics)
{
    SparseMemory mem;
    EXPECT_DEATH(mem.block(0x21), "unaligned");
}

TEST(StatSet, ScalarRegistrationIsStable)
{
    StatSet stats;
    Scalar &a = stats.scalar("x.count", "desc");
    a += 2.0;
    Scalar &b = stats.scalar("x.count");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 2.0);
    ++b;
    EXPECT_EQ(stats.findScalar("x.count")->value(), 3.0);
    EXPECT_EQ(stats.findScalar("missing"), nullptr);
}

TEST(StatSet, SumScalarsByPrefixSuffix)
{
    StatSet stats;
    stats.scalar("pim0.commands") += 10;
    stats.scalar("pim1.commands") += 5;
    stats.scalar("pim1.bytes") += 99;
    stats.scalar("mc0.commands") += 7;
    EXPECT_EQ(stats.sumScalars("pim", ".commands"), 15.0);
    EXPECT_EQ(stats.sumScalars("", ".commands"), 22.0);
    EXPECT_EQ(stats.sumScalars("pim", ".bytes"), 99.0);
}

TEST(StatSet, DistributionTracksMoments)
{
    StatSet stats;
    Distribution &d = stats.distribution("lat", "latency");
    d.sample(10);
    d.sample(30);
    d.sample(20);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.mean(), 20.0);
    EXPECT_EQ(d.minValue(), 10.0);
    EXPECT_EQ(d.maxValue(), 30.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
}

TEST(StatSet, DumpMentionsAllStats)
{
    StatSet stats;
    stats.scalar("alpha.count", "things") += 4;
    stats.distribution("beta.lat", "latencies").sample(2);
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("alpha.count"), std::string::npos);
    EXPECT_NE(os.str().find("beta.lat"), std::string::npos);
    EXPECT_NE(os.str().find("things"), std::string::npos);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, RangesAreBounded)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextRange(17), 17u);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        float f = rng.nextFloat(-2.0f, 3.0f);
        EXPECT_GE(f, -2.0f);
        EXPECT_LT(f, 3.0f);
    }
}

TEST(Rng, JitterIsDeterministicAndBounded)
{
    for (std::uint64_t id = 0; id < 1000; ++id) {
        std::uint32_t j = jitter(5, id, 8);
        EXPECT_LT(j, 8u);
        EXPECT_EQ(j, jitter(5, id, 8));
    }
    EXPECT_EQ(jitter(5, 123, 0), 0u);
    // Jitter should actually vary across ids.
    bool varied = false;
    for (std::uint64_t id = 1; id < 100 && !varied; ++id)
        varied = jitter(5, id, 8) != jitter(5, 0, 8);
    EXPECT_TRUE(varied);
}

} // namespace
} // namespace olight
