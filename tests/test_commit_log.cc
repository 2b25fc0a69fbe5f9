/**
 * @file
 * Record/replay round-trip properties of the binary commit log.
 *
 * The contract under test (docs/INTERNALS.md section 13): a recorded
 * run's oracle verdict is reproducible byte-identically from the log
 * alone; malformed logs fail with a structured status, never a
 * crash; the append path is allocation-free in steady state; and a
 * recording under the channel-partitioned driver is byte-identical
 * to the sequential driver's (the PartitionedRecord suite rides the
 * Partitioned* TSan aggregate, so recording under --sim-jobs 4 is
 * also race-checked).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "core/runner.hh"
#include "sim/commit_log.hh"
#include "verify/infer.hh"
#include "verify/litmus.hh"
#include "verify/log_events.hh"

namespace olight
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "olight_commit_log_" + name;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/** Record one workload run into @p path and return its result. */
RunResult
recordRun(const std::string &path, unsigned simJobs = 1)
{
    RunOptions opts;
    opts.workload = "Add";
    opts.elements = 1 << 12;
    opts.verify = false;
    opts.recordPath = path;
    opts.simJobs = simJobs;
    return runWorkload(opts);
}

/** First seed in [1, 32] where the pattern violates under None —
 *  recorded into @p path. The litmus harness's sensitivity assertion
 *  guarantees one exists. */
std::uint64_t
recordViolatingLitmus(const std::string &path,
                      LitmusResult &res)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        res = runLitmus("store_buffer", OrderingMode::None, seed, 1,
                        path);
        if (res.violations > 0)
            return seed;
    }
    return 0;
}

TEST(CommitLog, CleanRunRoundTripsByteIdentically)
{
    const std::string path = tmpPath("clean.olog");
    RunResult run = recordRun(path);
    EXPECT_EQ(run.oracleViolations, 0u);
    EXPECT_GT(run.oracleChecks, 0u);

    LogData log;
    std::string error;
    ASSERT_EQ(readCommitLog(path, log, &error), LogReadStatus::Ok)
        << error;
    EXPECT_GT(log.footer.records, 0u);
    EXPECT_EQ(log.footer.records, log.records.size());
    EXPECT_EQ(log.footer.clean, 1u);
    EXPECT_EQ(log.footer.violations, 0u);
    EXPECT_EQ(log.footer.checks, run.oracleChecks);

    const ReplayVerdict replay = replayLog(log);
    EXPECT_TRUE(replay.matchesFooter(log.footer));
    EXPECT_EQ(replay.violations, run.oracleViolations);
    EXPECT_EQ(replay.checks, run.oracleChecks);
    std::remove(path.c_str());
}

TEST(CommitLog, ViolatingLitmusRunRoundTripsByteIdentically)
{
    const std::string path = tmpPath("violating.olog");
    LitmusResult res;
    const std::uint64_t seed = recordViolatingLitmus(path, res);
    ASSERT_GT(seed, 0u)
        << "no violating store_buffer seed under None in [1,32]";

    LogData log;
    std::string error;
    ASSERT_EQ(readCommitLog(path, log, &error), LogReadStatus::Ok)
        << error;
    EXPECT_EQ(log.header.seed, seed);
    EXPECT_EQ(log.footer.clean, 0u);
    EXPECT_EQ(log.footer.violations, res.violations);

    const ReplayVerdict replay = replayLog(log);
    EXPECT_TRUE(replay.matchesFooter(log.footer));
    EXPECT_EQ(replay.violations, res.violations);
    EXPECT_FALSE(replay.clean);
    // The report text itself must reproduce, not just its hash.
    EXPECT_EQ(replay.report, res.report);
    std::remove(path.c_str());
}

TEST(CommitLog, TruncatedLogFailsStructurally)
{
    const std::string path = tmpPath("truncated.olog");
    recordRun(path);
    std::vector<char> bytes = slurp(path);
    ASSERT_GT(bytes.size(), 200u);

    // Chop mid-records: the footer (and part of the stream) is gone.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              std::streamsize(bytes.size() / 2));
    out.close();

    LogData log;
    std::string error;
    EXPECT_EQ(readCommitLog(path, log, &error),
              LogReadStatus::Truncated);
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(CommitLog, CorruptRecordBytesFailTheGoldenHash)
{
    const std::string path = tmpPath("corrupt.olog");
    recordRun(path);
    std::vector<char> bytes = slurp(path);
    ASSERT_GT(bytes.size(), sizeof(LogHeader) + sizeof(LogFooter));

    // Flip one bit in the middle of the record stream.
    bytes[sizeof(LogHeader) + bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    out.close();

    LogData log;
    std::string error;
    EXPECT_EQ(readCommitLog(path, log, &error),
              LogReadStatus::Corrupt);
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(CommitLog, BadVersionFailsStructurally)
{
    const std::string path = tmpPath("badversion.olog");
    recordRun(path);
    std::vector<char> bytes = slurp(path);
    ASSERT_GT(bytes.size(), sizeof(LogHeader));

    // header.version sits right after the 8-byte magic.
    std::uint32_t version = 99;
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), std::streamsize(bytes.size()));

    LogData log;
    std::string error;
    EXPECT_EQ(readCommitLog(path, log, &error),
              LogReadStatus::BadVersion);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(CommitLog, RecordWidthMismatchFailsAsBadVersion)
{
    const std::string path = tmpPath("badwidth.olog");
    recordRun(path);
    std::vector<char> bytes = slurp(path);

    // header.recordBytes follows the version field.
    std::uint32_t width = sizeof(LogRecord) + 8;
    std::memcpy(bytes.data() + 12, &width, sizeof(width));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), std::streamsize(bytes.size()));

    LogData log;
    std::string error;
    EXPECT_EQ(readCommitLog(path, log, &error),
              LogReadStatus::BadVersion);
    EXPECT_NE(error.find("record width"), std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(CommitLog, TamperedGoldenHashFailsAsCorrupt)
{
    const std::string path = tmpPath("badhash.olog");
    recordRun(path);
    std::vector<char> bytes = slurp(path);
    ASSERT_GT(bytes.size(), sizeof(LogFooter));

    // footer.recordsHash: footer magic (8) + records (8) = offset 16
    // into the trailing 64-byte footer.
    std::size_t off = bytes.size() - sizeof(LogFooter) + 16;
    bytes[off] ^= 0x01;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), std::streamsize(bytes.size()));

    LogData log;
    std::string error;
    EXPECT_EQ(readCommitLog(path, log, &error),
              LogReadStatus::Corrupt);
    EXPECT_NE(error.find("hash"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(CommitLog, TamperedFooterVerdictFailsTheReplayDiff)
{
    const std::string path = tmpPath("badverdict.olog");
    recordRun(path);
    std::vector<char> bytes = slurp(path);

    // footer.reportHash (offset 40 in the footer) is not covered by
    // recordsHash — the read succeeds structurally, but the replayed
    // verdict must refuse to match the tampered footer.
    std::size_t off = bytes.size() - sizeof(LogFooter) + 40;
    bytes[off] ^= 0x01;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), std::streamsize(bytes.size()));

    LogData log;
    std::string error;
    ASSERT_EQ(readCommitLog(path, log, &error), LogReadStatus::Ok)
        << error;
    EXPECT_FALSE(replayLog(log).matchesFooter(log.footer));
    std::remove(path.c_str());
}

TEST(CommitLog, LouvreLitmusLogCarriesModeAndReplays)
{
    const std::string path = tmpPath("louvre.olog");
    LitmusResult res = runLitmus("msg_passing",
                                 OrderingMode::Louvre, 3, 1, path);
    EXPECT_EQ(res.violations, 0u);

    LogData log;
    std::string error;
    ASSERT_EQ(readCommitLog(path, log, &error), LogReadStatus::Ok)
        << error;
    // The versioned backend round-trips with no format change: the
    // header names the mode, and the offline oracle reproduces the
    // live verdict (including the louvre-only invariants).
    EXPECT_EQ(OrderingMode(log.header.orderingMode),
              OrderingMode::Louvre);
    const ReplayVerdict replay = replayLog(log);
    EXPECT_TRUE(replay.matchesFooter(log.footer));
    EXPECT_EQ(replay.violations, 0u);
    EXPECT_GT(replay.checks, 0u);

    const InferredOrder order = inferHappensBefore(log);
    EXPECT_TRUE(order.consistentWith(replay));
    EXPECT_GT(order.crossGroupEdges, 0u);
    std::remove(path.c_str());
}

TEST(CommitLog, NotALogAndMissingFileFailCleanly)
{
    const std::string path = tmpPath("notalog.olog");
    std::ofstream(path) << "this is not a commit log, magic wrong\n"
                        << std::string(200, 'x');
    LogData log;
    std::string error;
    EXPECT_EQ(readCommitLog(path, log, &error),
              LogReadStatus::BadMagic);
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());

    EXPECT_EQ(readCommitLog(tmpPath("does_not_exist.olog"), log,
                            &error),
              LogReadStatus::IoError);
}

TEST(CommitLog, AppendIsAllocationFreeInSteadyState)
{
    const std::string path = tmpPath("alloc.olog");
    SystemConfig cfg;
    CommitLogWriter writer(path, cfg, 0);

    LogRecord rec;
    rec.kind = std::uint8_t(LogRecordKind::McCommit);
    rec.name = writer.intern("mc0"); // discover the name set
    // Warm up past the first chunk flush so the cstdio stream and
    // chunk buffer are in steady state.
    for (int i = 0; i < 600; ++i) {
        rec.pktId = std::uint64_t(i);
        writer.append(rec);
    }

    const std::uint64_t before = test_alloc::newCount();
    for (int i = 0; i < 4096; ++i) {
        rec.pktId = std::uint64_t(i);
        rec.name = writer.intern("mc0"); // steady state: lookup only
        writer.append(rec);
    }
    const std::uint64_t after = test_alloc::newCount();
    EXPECT_EQ(after, before)
        << "append/intern allocated in steady state";

    EXPECT_TRUE(writer.finish(0, 0, 0, true));
    std::remove(path.c_str());
}

TEST(CommitLog, InferenceAgreesWithOracleOnCleanLog)
{
    const std::string path = tmpPath("infer_clean.olog");
    LitmusResult res = runLitmus("msg_passing",
                                 OrderingMode::OrderLight, 1, 1,
                                 path);
    EXPECT_EQ(res.violations, 0u);

    LogData log;
    std::string error;
    ASSERT_EQ(readCommitLog(path, log, &error), LogReadStatus::Ok)
        << error;
    const InferredOrder order = inferHappensBefore(log);
    EXPECT_GT(order.orderingPoints, 0u);
    EXPECT_GT(order.edges.size(), 0u);
    EXPECT_GT(order.commits, 0u);
    EXPECT_EQ(order.violatedEdges, 0u);
    // msg_passing crosses two memory groups through dual markers.
    EXPECT_GT(order.crossGroupEdges, 0u);

    EXPECT_TRUE(order.consistentWith(replayLog(log)));
    std::remove(path.c_str());
}

TEST(CommitLog, InferenceAgreesWithOracleOnViolatingLog)
{
    const std::string path = tmpPath("infer_violating.olog");
    LitmusResult res;
    ASSERT_GT(recordViolatingLitmus(path, res), 0u);

    LogData log;
    std::string error;
    ASSERT_EQ(readCommitLog(path, log, &error), LogReadStatus::Ok)
        << error;
    const ReplayVerdict replay = replayLog(log);
    const InferredOrder order = inferHappensBefore(log);
    EXPECT_TRUE(order.consistentWith(replay))
        << "oracle: " << replay.violations
        << " violation(s); inference: " << order.violatedEdges
        << " violated edge(s)\n"
        << replay.report;
    std::remove(path.c_str());
}

TEST(CommitLog, PerturbedSchedulesAreSeededAndCounted)
{
    const std::string path = tmpPath("perturb.olog");
    LitmusResult res;
    ASSERT_GT(recordViolatingLitmus(path, res), 0u);

    LogData log;
    std::string error;
    ASSERT_EQ(readCommitLog(path, log, &error), LogReadStatus::Ok)
        << error;

    const PerturbSummary sum = perturbAndCheck(log, 25, 7, 2000);
    EXPECT_EQ(sum.schedules, 25u);
    EXPECT_EQ(sum.violating + sum.clean, sum.schedules);
    EXPECT_GT(sum.shuffledCommits, 0u)
        << "windows too small to move any commit";
    // An unordered (None) log stays sensitive under most shuffles.
    EXPECT_GT(sum.violating, 0u);
    // The compiled edge check must agree with the full oracle replay
    // on every cross-validated perturbed stream.
    EXPECT_GT(sum.validated, 0u);
    EXPECT_EQ(sum.validationMismatches, 0u);

    // Same seed, same summary; different seed, different shuffles.
    const PerturbSummary again = perturbAndCheck(log, 25, 7, 2000);
    EXPECT_EQ(again.violating, sum.violating);
    EXPECT_EQ(again.totalViolations, sum.totalViolations);
    EXPECT_EQ(again.shuffledCommits, sum.shuffledCommits);
    std::remove(path.c_str());
}

/** Recording under the channel-partitioned driver: all hooks funnel
 *  through the host thread (mailbox relays), so a multi-worker
 *  recording is race-free (this suite rides the Partitioned* TSan
 *  aggregate). Relays replay at the collapsed heap's position, so
 *  the hook stream, and with it the file, is byte-identical to the
 *  sequential driver's, and reaches the same verdict. */
TEST(PartitionedRecord, WorkloadRecordingDeterministicSameVerdict)
{
    const std::string seq = tmpPath("seq.olog");
    const std::string par = tmpPath("par.olog");
    const std::string par2 = tmpPath("par2.olog");
    recordRun(seq, 1);
    recordRun(par, 4);
    recordRun(par2, 4);
    EXPECT_EQ(slurp(par), slurp(par2));
    EXPECT_EQ(slurp(seq), slurp(par));

    LogData seqLog, parLog;
    std::string error;
    ASSERT_EQ(readCommitLog(seq, seqLog, &error), LogReadStatus::Ok)
        << error;
    ASSERT_EQ(readCommitLog(par, parLog, &error), LogReadStatus::Ok)
        << error;
    // Same observations, same verdict — independent of the driver.
    EXPECT_EQ(seqLog.footer.records, parLog.footer.records);
    EXPECT_EQ(seqLog.footer.violations, parLog.footer.violations);
    EXPECT_EQ(seqLog.footer.checks, parLog.footer.checks);
    EXPECT_EQ(seqLog.footer.reportHash, parLog.footer.reportHash);
    EXPECT_EQ(seqLog.footer.clean, parLog.footer.clean);
    // And each log replays to its own footer byte-identically.
    EXPECT_TRUE(replayLog(parLog).matchesFooter(parLog.footer));
    EXPECT_TRUE(replayLog(seqLog).matchesFooter(seqLog.footer));
    std::remove(seq.c_str());
    std::remove(par.c_str());
    std::remove(par2.c_str());
}

TEST(PartitionedRecord, LitmusRecordingDeterministicSameVerdict)
{
    const std::string seq = tmpPath("litmus_seq.olog");
    const std::string par = tmpPath("litmus_par.olog");
    const std::string par2 = tmpPath("litmus_par2.olog");
    // host_pim_mix exercises host traffic + PIM + OL replication.
    runLitmus("host_pim_mix", OrderingMode::OrderLight, 3, 1, seq);
    runLitmus("host_pim_mix", OrderingMode::OrderLight, 3, 4, par);
    runLitmus("host_pim_mix", OrderingMode::OrderLight, 3, 4, par2);
    EXPECT_EQ(slurp(par), slurp(par2));
    EXPECT_EQ(slurp(seq), slurp(par));

    LogData seqLog, parLog;
    std::string error;
    ASSERT_EQ(readCommitLog(seq, seqLog, &error), LogReadStatus::Ok)
        << error;
    ASSERT_EQ(readCommitLog(par, parLog, &error), LogReadStatus::Ok)
        << error;
    EXPECT_EQ(seqLog.footer.records, parLog.footer.records);
    EXPECT_EQ(seqLog.footer.violations, parLog.footer.violations);
    EXPECT_EQ(seqLog.footer.checks, parLog.footer.checks);
    EXPECT_EQ(seqLog.footer.reportHash, parLog.footer.reportHash);
    EXPECT_EQ(seqLog.footer.clean, parLog.footer.clean);
    EXPECT_TRUE(replayLog(parLog).matchesFooter(parLog.footer));
    std::remove(seq.c_str());
    std::remove(par.c_str());
    std::remove(par2.c_str());
}

} // namespace
} // namespace olight
