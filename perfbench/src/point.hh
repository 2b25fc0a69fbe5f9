/**
 * @file
 * One simulated experiment point, run through the same public calls
 * as olight::runWorkload() (makeWorkload / Workload::build /
 * initMemory, the System constructor / run / stats(), runGolden /
 * compareArray / Workload::check) with a span around each layer,
 * and the counters the benchmark reads from the finished System.
 */

#ifndef PERFBENCH_POINT_HH
#define PERFBENCH_POINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hh"
#include "harness.hh"

namespace perfbench
{

/** Simulated-machine counts summed over a point's StatSet. */
struct SimCounts
{
    double stallCycles = 0;     ///< sm*.stallCycles
    double fenceWait = 0;       ///< sum of sm*.fenceWait samples
    double olWait = 0;          ///< sum of sm*.olWait samples
    double hops = 0;            ///< *.forwarded
    double olCopies = 0;        ///< *.div.olCopies
    double olMerges = 0;        ///< *.conv.olMerges
    double orderingBlocked = 0; ///< mc*.orderingBlocked
    double queueLatencySum = 0; ///< sum of mc*.queueLatency samples
    double queueLatencyCount = 0;
    double acts = 0;            ///< dram*.acts
    double rowHits = 0;         ///< dram*.rowHits
    double rowMisses = 0;       ///< dram*.rowMisses
    double pimCommands = 0;     ///< pim*.commands
    double pimBytes = 0;        ///< pim*.bytes

    void add(const SimCounts &o);
    bool operator==(const SimCounts &o) const = default;
};

/** Counters of the channel-partitioned driver. */
struct DomainCounts
{
    double hostSeconds = 0; ///< host-domain execution time
    double allSeconds = 0;  ///< summed over every domain
    double windows = 0;
    double mailboxMsgs = 0;
    double stallWindows = 0;
};

/** A point's shape; makePoint() adds the size and seed. */
struct PointDef
{
    const char *workload;
    olight::OrderingMode mode;
    std::uint32_t tsBytes;
};

/** RunOptions for @p d at @p elements, BMF 16, SystemConfig::seed
 *  @p seed (the remaining options at their defaults). */
olight::RunOptions makePoint(const PointDef &d, std::uint64_t elements,
                             std::uint64_t seed);

struct PointRun
{
    olight::RunResult result; ///< the fields runWorkload() fills
    double seconds = 0.0;     ///< whole point, build to verify
    SimCounts counts;
    DomainCounts domains;
    std::uint64_t statsHash = 0; ///< fnv1a64 of StatSet::dumpJson
    std::string metricsJson;     ///< RunMetrics::writeJson
};

/**
 * Run @p opts (simJobs, verify, oracle and profileDomains honoured;
 * recording and the GPU baseline are not used by the benchmark).
 * Spans go under @p parent, tagged with @p id.
 */
PointRun runPoint(const olight::RunOptions &opts, Tracer *tracer,
                  std::size_t parent, std::uint64_t id);

/** The serve protocol's request line for a run point. */
std::string runRequestLine(const olight::RunOptions &opts);

/** Short label such as "Add/louvre/ts128/2^20". */
std::string pointLabel(const olight::RunOptions &opts);

/**
 * STREAM sanity check: a STREAM point's PIM bytes must equal the
 * kernel's canonical bytes per element (2 x 4 B for Copy/Scale,
 * 3 x 4 B for Add/Daxpy/Triad) times its elements. Other families
 * pass trivially.
 */
bool streamBytesOk(const olight::RunOptions &opts, const SimCounts &c,
                   std::string &why);

/**
 * Per-layer metrics of one pass over a workload's distinct points:
 * summed simulated-machine counts, event and instruction counts,
 * and the mean per-point self time of each layer span in @p tracer.
 * The event-domain counters come from @p partitioned, a run through
 * the channel-partitioned driver (0 when null).
 */
void reportPointLayers(Report &report,
                       const std::vector<const PointRun *> &pass,
                       const PointRun *partitioned, const Tracer &tracer);

/**
 * Observer cost: host time of one System::run of @p opts with the
 * ordering oracle on, divided by the same run without it.
 */
double oracleOverheadX(olight::RunOptions opts);

/**
 * Serve-stage costs, measured by calling the daemon's own stage
 * functions (parseRequest, fingerprint, ResultCache and CasStore
 * get/put, runBody + okReply) on each point's request and result.
 * Reports the median microseconds per stage; a stage that returns
 * a different answer than the direct computation counts as failed.
 */
void probeServeStages(
    Report &report, Tracer *tracer, const std::string &casRoot,
    const std::vector<std::pair<olight::RunOptions,
                                olight::RunResult>> &points);

/**
 * Report 0 for per-layer metrics of layers this workload never
 * reaches (e.g. fleet counters on a simulation-only workload), and
 * name them in the report's notes.
 */
void reportNotOnPath(Report &report,
                     const std::vector<std::string> &names);

/** Recursively delete @p path (no-op when absent). */
void removeTree(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_POINT_HH
