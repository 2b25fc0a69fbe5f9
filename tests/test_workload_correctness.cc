/**
 * @file
 * Parameterized functional-correctness sweep: every workload of
 * Table 2 runs under both real ordering primitives (Fence and
 * OrderLight) and must produce results that are bit-identical to the
 * golden program-order execution AND match the workload's
 * independent mathematical reference. This is the central invariant
 * of the reproduction — ordering enforcement is sufficient at every
 * reordering point of the modeled pipe.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/runner.hh"
#include "workloads/registry.hh"

namespace olight
{
namespace
{

/**
 * gtest lists a parameter it cannot print as its raw bytes, and that
 * listing is part of each test's ID. A std::string member would put a
 * heap address into the ID, so the ID would change with the test
 * binary's path and with unrelated allocations; a NUL-padded array
 * with no padding bytes keeps every byte, and so the ID, fixed.
 */
struct Param
{
    char workload[39];
    OrderingMode mode;
};
static_assert(sizeof(Param) == 40, "Param must have no padding bytes");

Param
makeParam(const std::string &workload, OrderingMode mode)
{
    Param p{};
    if (workload.size() >= sizeof(p.workload))
        throw std::length_error("workload name too long: " + workload);
    workload.copy(p.workload, workload.size());
    p.mode = mode;
    return p;
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    return std::string(info.param.workload) + "_" +
           toString(info.param.mode);
}

class WorkloadCorrectness : public ::testing::TestWithParam<Param>
{
};

TEST_P(WorkloadCorrectness, MatchesGoldenAndReference)
{
    RunOptions opts;
    opts.workload = GetParam().workload;
    opts.mode = GetParam().mode;
    opts.elements = 1ull << 16; // small but multi-tile
    opts.tsBytes = 256;
    opts.bmf = 16;

    RunResult r = runWorkload(opts);
    ASSERT_TRUE(r.verified);
    EXPECT_TRUE(r.correct) << r.why;
    EXPECT_GT(r.metrics.pimCommands, 0u);
    EXPECT_GT(r.orderPoints, 0u);
    if (GetParam().mode == OrderingMode::Fence) {
        EXPECT_GT(r.metrics.fenceCount, 0u);
        EXPECT_EQ(r.metrics.olPackets, 0u);
    } else {
        EXPECT_GT(r.metrics.olPackets, 0u);
        EXPECT_EQ(r.metrics.fenceCount, 0u);
    }
}

std::vector<Param>
allParams()
{
    std::vector<Param> params;
    for (const auto &name : workloadNames()) {
        params.push_back(makeParam(name, OrderingMode::OrderLight));
        params.push_back(makeParam(name, OrderingMode::Fence));
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadCorrectness,
                         ::testing::ValuesIn(allParams()),
                         paramName);

/** TS-size sweep on representative kernels (OrderLight). */
class TsSweepCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string,
                                                 std::uint32_t>>
{
};

TEST_P(TsSweepCorrectness, CorrectAtEveryTsSize)
{
    RunOptions opts;
    opts.workload = std::get<0>(GetParam());
    opts.tsBytes = std::get<1>(GetParam());
    opts.mode = OrderingMode::OrderLight;
    opts.elements = 1ull << 15;
    RunResult r = runWorkload(opts);
    EXPECT_TRUE(r.correct) << r.why;
}

INSTANTIATE_TEST_SUITE_P(
    TsSizes, TsSweepCorrectness,
    ::testing::Combine(::testing::Values("Add", "Scale", "Hist",
                                         "Gen_Fil", "FC"),
                       ::testing::Values(128u, 256u, 512u, 1024u)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_ts" +
               std::to_string(std::get<1>(info.param));
    });

/** BMF sweep: the lane-parallel model stays correct at 4x/8x/16x. */
class BmfSweepCorrectness
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BmfSweepCorrectness, CorrectAtEveryBmf)
{
    for (const char *name : {"Add", "KMeans"}) {
        RunOptions opts;
        opts.workload = name;
        opts.bmf = GetParam();
        opts.elements = 1ull << 15;
        RunResult r = runWorkload(opts);
        EXPECT_TRUE(r.correct) << name << ": " << r.why;
    }
}

INSTANTIATE_TEST_SUITE_P(Bmf, BmfSweepCorrectness,
                         ::testing::Values(4u, 8u, 16u));

/**
 * The transactional family's structural contract: every transaction
 * is a read-set / conflict-window / write-set triple, and each part
 * closes with an ordering point before the next part (or the next
 * transaction) touches the same TS slots.
 */
TEST(TxnKernels, ConflictWindowsAreOrderPointBracketed)
{
    SystemConfig cfg;
    auto w = makeWorkload("Txn_Xfer");
    w->build(cfg, 1ull << 14);
    for (const auto &stream : w->streams()) {
        // Per transaction: 2 loads, OP, 2 computes, OP, 2 stores, OP.
        ASSERT_EQ(stream.size() % 9, 0u);
        ASSERT_GT(stream.size(), 0u);
        for (std::size_t t = 0; t < stream.size(); t += 9) {
            EXPECT_EQ(stream[t + 0].type, PimOpType::PimLoad);
            EXPECT_EQ(stream[t + 1].type, PimOpType::PimLoad);
            EXPECT_EQ(stream[t + 2].type, PimOpType::OrderPoint);
            EXPECT_EQ(stream[t + 3].type, PimOpType::PimCompute);
            EXPECT_EQ(stream[t + 4].type, PimOpType::PimCompute);
            EXPECT_EQ(stream[t + 5].type, PimOpType::OrderPoint);
            EXPECT_EQ(stream[t + 6].type, PimOpType::PimStore);
            EXPECT_EQ(stream[t + 7].type, PimOpType::PimStore);
            EXPECT_EQ(stream[t + 8].type, PimOpType::OrderPoint);
        }
    }

    // The cross-group commit variant publishes through dual-group
    // ordering points on both window edges.
    auto log = makeWorkload("Txn_Log");
    log->build(cfg, 1ull << 14);
    std::uint64_t duals = 0;
    for (const auto &instr : log->streams()[0])
        if (instr.secondOrderGroup() >= 0)
            ++duals;
    EXPECT_GT(duals, 0u);
}

/**
 * The conflict windows are genuinely ordering-sensitive: with no
 * enforcement the simulated pipe loses updates (detected bit-exactly
 * by the independent checker) and the in-pipe oracle flags commit-
 * order violations. This pins that the txn/bitwise families actually
 * exercise the hazard the enforcing backends must close.
 */
TEST(TxnKernels, ConflictWindowsAreSensitiveWithoutEnforcement)
{
    for (const char *name : {"Txn_Xfer", "Bit_Xnor"}) {
        RunOptions opts;
        opts.workload = name;
        opts.mode = OrderingMode::None;
        opts.elements = 1ull << 14;
        RunResult r = runWorkload(opts);
        ASSERT_TRUE(r.verified) << name;
        EXPECT_FALSE(r.correct)
            << name << " should lose updates under mode=none";
    }
}

} // namespace
} // namespace olight
