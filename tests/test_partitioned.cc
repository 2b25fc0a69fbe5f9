/**
 * @file
 * Channel-partitioned execution tests: the determinism guarantees
 * (golden workload stats, sweep CSV, litmus verdicts, oracle
 * outcomes and packet traces byte-identical for every simJobs
 * value), the canonical event key and relay rule behind them, and the
 * steady-state memory discipline of the domain infrastructure
 * (arena-backed mailboxes and sized event heaps allocate nothing
 * once warm).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "alloc_counter.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/commit_log.hh"
#include "sim/event_domain.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "verify/litmus.hh"
#include "workloads/registry.hh"

namespace olight
{
namespace
{

/** Render the deterministic per-run outputs of @p r as one string
 *  (metrics JSON plus verification and oracle outcomes; wall-clock
 *  fields deliberately excluded). */
std::string
deterministicOutputs(const RunResult &r)
{
    std::ostringstream os;
    r.metrics.writeJson(os);
    os << "\nverified=" << r.verified << " correct=" << r.correct
       << " why=" << r.why << "\noracle=" << r.oracleViolations
       << "/" << r.oracleChecks << "\n"
       << r.oracleReport;
    return os.str();
}

RunResult
goldenRun(const std::string &workload, unsigned simJobs)
{
    RunOptions opts;
    opts.workload = workload;
    opts.elements = 1ull << 12;
    opts.mode = OrderingMode::OrderLight;
    opts.verify = true;
    opts.oracle = true;
    opts.simJobs = simJobs;
    return runWorkload(opts);
}

/** The acceptance-level guarantee: a verified, oracle-attached
 *  golden workload produces byte-identical deterministic outputs at
 *  simJobs 1 (sequential driver), 2 and 4 (windowed partitioned
 *  driver).
 *  KMeans is the historical canary — its host/channel credit
 *  interleaving is what shook out the stamp/priority/credit rules
 *  documented in sim/event_domain.hh. */
TEST(Partitioned, GoldenWorkloadByteIdenticalAcrossSimJobs)
{
    for (const char *wl : {"KMeans", "Triad"}) {
        SCOPED_TRACE(wl);
        const std::string at1 = deterministicOutputs(goldenRun(wl, 1));
        const std::string at2 = deterministicOutputs(goldenRun(wl, 2));
        const std::string at4 = deterministicOutputs(goldenRun(wl, 4));
        EXPECT_EQ(at1, at2);
        EXPECT_EQ(at1, at4);
        EXPECT_NE(at1.find("\"finish_tick\""), std::string::npos)
            << "metrics JSON should carry the tick columns: " << at1;
    }
}

/** Oracle verdicts (not just counts) must match across drivers. */
TEST(Partitioned, OracleVerdictsIndependentOfSimJobs)
{
    RunResult seq = goldenRun("Daxpy", 1);
    RunResult par = goldenRun("Daxpy", 4);
    EXPECT_TRUE(seq.correct);
    EXPECT_TRUE(par.correct);
    EXPECT_EQ(seq.oracleViolations, par.oracleViolations);
    EXPECT_EQ(seq.oracleChecks, par.oracleChecks);
    EXPECT_EQ(seq.oracleReport, par.oracleReport);
    EXPECT_GT(par.oracleChecks, 0u);
}

/** Sweep CSV (the artifact results/ commits) is byte-identical for
 *  every simJobs value, including with grid-level workers on top. */
TEST(Partitioned, SweepCsvByteIdenticalAcrossSimJobs)
{
    SweepSpec spec;
    spec.workloads = {"Scale", "KMeans"};
    spec.modes = {OrderingMode::Fence, OrderingMode::OrderLight};
    spec.tsSizes = {256};
    spec.bmfs = {16};
    spec.elements = 1ull << 12;
    spec.verify = true;

    std::string csvBySimJobs[3];
    unsigned simJobs[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
        SweepSpec s = spec;
        s.simJobs = simJobs[i];
        s.jobs = (i == 2) ? 2 : 1; // grid workers on top, once
        std::ostringstream os;
        writeCsv(os, runSweep(s));
        csvBySimJobs[i] = os.str();
    }
    EXPECT_EQ(csvBySimJobs[0], csvBySimJobs[1]);
    EXPECT_EQ(csvBySimJobs[0], csvBySimJobs[2]);
}

/** Every litmus-table entry reaches the same verdict (violations,
 *  checks, report text) under every driver, for the mode that must
 *  stay clean and the mode that must trip. */
TEST(Partitioned, LitmusVerdictsIndependentOfSimJobs)
{
    for (const LitmusSpec &spec : litmusTable()) {
        for (OrderingMode mode :
             {OrderingMode::None, OrderingMode::Fence,
              OrderingMode::OrderLight}) {
            for (std::uint64_t seed : {1ull, 7ull}) {
                SCOPED_TRACE(std::string(spec.name) + " mode=" +
                             std::to_string(int(mode)) + " seed=" +
                             std::to_string(seed));
                LitmusResult r1 =
                    runLitmus(spec.name, mode, seed, 1);
                LitmusResult r2 =
                    runLitmus(spec.name, mode, seed, 2);
                LitmusResult r4 =
                    runLitmus(spec.name, mode, seed, 4);
                EXPECT_EQ(r1.violations, r2.violations);
                EXPECT_EQ(r1.violations, r4.violations);
                EXPECT_EQ(r1.checks, r2.checks);
                EXPECT_EQ(r1.checks, r4.checks);
                EXPECT_EQ(r1.report, r2.report);
                EXPECT_EQ(r1.report, r4.report);
            }
        }
    }
}

/** Run @p workload partitioned and return the domain profiles. */
std::vector<DomainProfile>
profilesFor(const char *workload, std::uint64_t elements)
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    auto wl = makeWorkload(workload);
    wl->build(cfg, elements);
    ExecPolicy policy;
    policy.simJobs = 4;
    System sys(cfg, policy);
    wl->initMemory(sys.mem());
    sys.loadPimKernel(wl->streams());
    sys.run();
    EXPECT_TRUE(sys.partitioned());
    return sys.domainProfiles();
}

/** Steady-state memory discipline at the System level: the per-run
 *  allocation sources the profiles count — event-heap regrows and
 *  arena chunk acquisitions — must not scale with run length. A 4x
 *  longer run executes 4x the events and crosses 4x the window
 *  barriers with the *same* heap reservations and the same arena
 *  high-water chunks: the windowed hot path reuses, never grows. */
TEST(Partitioned, DomainHeapAndArenaGrowthIndependentOfRunLength)
{
    auto small = profilesFor("Triad", 1ull << 12);
    auto large = profilesFor("Triad", 1ull << 18);
    ASSERT_EQ(small.size(), large.size());
    std::uint64_t smallEvents = 0, largeEvents = 0;
    for (std::size_t d = 0; d < small.size(); ++d) {
        SCOPED_TRACE(d);
        smallEvents += small[d].events;
        largeEvents += large[d].events;
        EXPECT_EQ(small[d].heapRegrows, 0u);
        EXPECT_EQ(large[d].heapRegrows, 0u);
        EXPECT_EQ(small[d].arenaGrows, large[d].arenaGrows);
    }
    EXPECT_GT(largeEvents, 2 * smallEvents)
        << "the large run should be several times the work";
}

/** Steady-state window cycle of the cross-domain machinery itself —
 *  mailbox pushes from a channel queue's executing context, barrier
 *  drain into the host queue, arena reset — allocates nothing once
 *  the first windows have sized the arena and the heaps. */
TEST(Partitioned, CrossDomainWindowCycleAllocatesNothing)
{
    EventQueue hostQ(256);
    EventQueue chQ(256);
    chQ.setSourceId(1);
    DomainMailbox box;

    std::uint64_t applied = 0;
    auto window = [&](Tick base, int depth) {
        // Channel phase: each event records one cross-domain
        // message, as the partitioned ack/credit wrappers do.
        for (int i = 0; i < depth; ++i)
            chQ.schedule(base + Tick(i), [&] {
                CrossMsg m;
                m.kind = CrossMsg::Kind::Ack;
                m.channel = 0;
                m.applyTick = chQ.now();
                m.stamp = chQ.currentStamp();
                m.prio = chQ.currentPrio();
                box.push(m);
            });
        chQ.runUntil(base + Tick(depth));
        // Barrier: drain in order, replay into the host queue with
        // the recorded (stamp, source), then wholesale-free.
        for (std::size_t i = 0; i < box.size(); ++i) {
            const CrossMsg &m = box[i];
            EventQueue::ExternalScope scope(hostQ, m.stamp, 1, 0);
            hostQ.schedule(m.applyTick, [&] { ++applied; }, m.prio);
        }
        hostQ.runUntil(base + Tick(depth));
        box.reset();
    };

    Tick base = 0;
    const int kDepth = 64;
    for (int w = 0; w < 4; ++w, base += kDepth) // warm up
        window(base, kDepth);

    const std::uint64_t before = test_alloc::newCount();
    for (int w = 0; w < 32; ++w, base += kDepth)
        window(base, kDepth);
    EXPECT_EQ(test_alloc::newCount() - before, 0u)
        << "steady-state window cycles must not allocate";
    EXPECT_EQ(applied, 36u * kDepth);
}

/** One heap pops the canonical key in field order: tick, priority,
 *  stamp, source id, domain rank. */
TEST(Partitioned, CanonicalKeyOrdersOneHeap)
{
    EventQueue q(16);
    std::vector<int> order;
    auto at = [&](int id, Tick stamp, std::uint16_t src,
                  std::uint16_t rank, Tick when = 5,
                  EventPriority prio = EventPriority::DramTiming) {
        EventQueue::ExternalScope scope(q, stamp, src, rank);
        q.schedule(when, [&order, id] { order.push_back(id); }, prio);
    };
    at(0, 0, 0, 0, 6);
    at(1, 0, 0, 0, 5, EventPriority::Stats);
    at(2, 0, 0, 0, 5, EventPriority::Wakeup);
    at(6, 1, 3, 0);
    at(5, 1, 0, 2);
    at(4, 1, 0, 0);
    at(3, 0, 0, 0);
    while (q.step()) {
    }
    EXPECT_EQ(order, (std::vector<int>{3, 4, 5, 6, 2, 1, 0}));
}

/** Two same-tick deliveries into one queue: one stamped with another
 *  queue's clock (setExternalSource, stamp 50), one scheduled later
 *  from an earlier-stamped context (ExternalScope, stamp 45). The
 *  earlier stamp runs first — how cross-domain arrivals keep the
 *  collapsed heap's order under the windowed driver. */
TEST(Partitioned, ExternalStampOrdersSameTickArrivals)
{
    EventQueue clock(8), q(8);
    clock.schedule(50, [] {});
    clock.step();
    std::vector<int> order;
    q.setExternalSource(&clock, 9);
    q.schedule(60, [&] { order.push_back(1); });
    q.clearExternalSource();
    {
        EventQueue::ExternalScope scope(q, 45, 2, 0);
        q.schedule(60, [&] { order.push_back(2); });
    }
    while (q.step()) {
    }
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

/** A channel message keyed below the previous one at the same tick
 *  (a lower-priority follow-up of the executing event) is raised to
 *  that key; a higher key or a later tick is kept. */
TEST(Partitioned, MailboxReplayKeysNeverDecrease)
{
    DomainMailbox box;
    auto push = [&](Tick when, EventPriority prio, Tick stamp,
                    std::uint16_t src) {
        CrossMsg m;
        m.applyTick = when;
        m.prio = prio;
        m.stamp = stamp;
        m.src = src;
        const CrossMsg &r = box.push(m);
        return std::tuple(r.prio, r.stamp, r.src);
    };
    push(100, EventPriority::Wakeup, 90, 3);
    EXPECT_EQ(push(100, EventPriority::Default, 100, 0),
              std::tuple(EventPriority::Wakeup, Tick(90), 3));
    EXPECT_EQ(push(100, EventPriority::Stats, 100, 0),
              std::tuple(EventPriority::Stats, Tick(100), 0));
    EXPECT_EQ(push(101, EventPriority::DramTiming, 101, 0),
              std::tuple(EventPriority::DramTiming, Tick(101), 0));
}

/** Packet trace of one KMeans run (or Triad plus a concurrent host
 *  stream over its arrays) at @p simJobs; with @p logPath, the
 *  oracle and the commit-log recorder sit behind the trace. */
std::string
tracedRun(unsigned simJobs, TraceFormat format, bool hostTraffic,
          const std::string &logPath = "")
{
    SystemConfig cfg = configFor(OrderingMode::OrderLight, 256, 16);
    cfg.verifyOracle = !logPath.empty();
    auto wl = makeWorkload(hostTraffic ? "Triad" : "KMeans");
    wl->build(cfg, 1ull << 12);
    ExecPolicy policy;
    policy.simJobs = simJobs;
    std::ostringstream trace;
    std::unique_ptr<CommitLogWriter> log;
    if (!logPath.empty())
        log = std::make_unique<CommitLogWriter>(logPath, cfg, 0);
    {
        System sys(cfg, policy);
        if (log)
            sys.enableRecording(*log);
        sys.enableTrace(trace, format);
        wl->initMemory(sys.mem());
        sys.loadPimKernel(wl->streams());
        if (hostTraffic) {
            auto arrays = wl->hostTraffic();
            for (auto &spec : arrays)
                spec.bytes = 128 * 1024; // completions pump the stream
            sys.setHostTraffic(std::move(arrays));
        }
        sys.run();
        const OrderingOracle *o = sys.oracle();
        if (log)
            EXPECT_TRUE(log->finish(o->violationCount(),
                                    o->checksPerformed(), 0, o->clean()));
    } // System destruction closes the trace (JSON footer)
    return trace.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

// Traces run to megabytes: compare with EXPECT_TRUE(a == b), not
// EXPECT_EQ, whose failure message would diff them line by line.

/** The trace is a pipe observer: channel-side rows reach it through
 *  the mailbox relays at the collapsed heap's position, so both
 *  formats are byte-identical for every worker count. */
TEST(PartitionedTrace, CsvAndChromeJsonByteIdenticalAcrossSimJobs)
{
    for (TraceFormat format : {TraceFormat::Csv, TraceFormat::ChromeJson}) {
        const std::string seq = tracedRun(1, format, false);
        EXPECT_NE(seq.find("mc3.queue"), std::string::npos);
        EXPECT_NE(seq.find("l2s3.toDram"), std::string::npos);
        EXPECT_TRUE(seq == tracedRun(2, format, false));
        EXPECT_TRUE(seq == tracedRun(4, format, false));
    }
}

/** Trace, recorder and oracle chained behind one relay per channel:
 *  trace and commit log are both byte-identical across drivers. */
TEST(PartitionedTrace, ByteIdenticalWithOracleAndRecording)
{
    const std::string seqLog = ::testing::TempDir() + "ptrace_1.olog";
    const std::string parLog = ::testing::TempDir() + "ptrace_4.olog";
    for (TraceFormat format : {TraceFormat::Csv, TraceFormat::ChromeJson}) {
        const std::string seq = tracedRun(1, format, false, seqLog);
        EXPECT_TRUE(seq == tracedRun(4, format, false, parLog));
        EXPECT_TRUE(seq == tracedRun(1, format, false));
        EXPECT_FALSE(slurp(seqLog).empty());
        EXPECT_TRUE(slurp(seqLog) == slurp(parLog));
    }
    std::remove(seqLog.c_str());
    std::remove(parLog.c_str());
}

/** Host-stream packets cross the traced L2 and MC stages alongside
 *  the PIM kernel. The host stream delivers into a channel inline from
 *  a completion or credit wake, so this also pins replays running as
 *  their channel's event (System::applyCrossMsg). */
TEST(PartitionedTrace, HostTrafficTraceByteIdenticalAcrossSimJobs)
{
    const std::string seq = tracedRun(1, TraceFormat::Csv, true);
    EXPECT_NE(seq.find(",mc3,schedule,\"HostLoad["), std::string::npos);
    EXPECT_TRUE(seq == tracedRun(4, TraceFormat::Csv, true));
}

} // namespace
} // namespace olight
