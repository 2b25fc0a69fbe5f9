/**
 * @file
 * sim_seq: a fixed list of single experiment points at 2^20
 * elements, covering all four workload families and the three
 * enforcing backends inside the paper's sweep (TS 1/16 to 1/2 row
 * buffer, BMF 16), run one after another at simJobs = 1 with golden
 * and mathematical verification, the way olight_cli and sweep points
 * are used. The traced run also runs one point through the
 * channel-partitioned driver for the event-domain counters.
 */

#include <algorithm>
#include <sstream>

#include "bench.hh"
#include "core/runner.hh"
#include "point.hh"
#include "workloads/registry.hh"

using namespace olight;

namespace perfbench
{

namespace
{

// Two txn points contrast how fence and OrderLight load the event
// heap (OrderLight runs more events per PIM command); the rest give
// each family and backend at least one point.
const PointDef kPoints[] = {
    {"Txn_Xfer", OrderingMode::OrderLight, 256},
    {"Txn_Xfer", OrderingMode::Fence, 256},
    {"Bit_Xnor", OrderingMode::OrderLight, 512},
    {"KMeans", OrderingMode::OrderLight, 256},
    {"Add", OrderingMode::Louvre, 128},
    {"Copy", OrderingMode::Fence, 1024},
    {"Gen_Fil", OrderingMode::Fence, 256},
    {"FC", OrderingMode::Louvre, 512},
};

constexpr std::uint64_t kElements = 1ull << 20;
constexpr int kSetupRepeats = 3;

std::vector<RunOptions>
simPoints(std::uint64_t seed)
{
    std::vector<RunOptions> points;
    for (const PointDef &d : kPoints)
        points.push_back(makePoint(d, kElements, seed));
    return points;
}

/** One-time set-up: resolve and validate every point (config check,
 *  workload lookup, kernel build) before any point runs. */
double
planPoints(const std::vector<RunOptions> &points, Report &report)
{
    const Clock::time_point t0 = Clock::now();
    for (const RunOptions &o : points) {
        SystemConfig cfg = configFor(o.mode, o.tsBytes, o.bmf, o.base);
        std::string why;
        const bool ok = findWorkload(o.workload) && cfg.check(why);
        if (!ok) {
            report.attempt(false, pointLabel(o) + ": " + why);
            continue;
        }
        makeWorkload(o.workload)->build(cfg, o.elements);
    }
    return secondsSince(t0);
}

bool
sameRun(const PointRun &a, const PointRun &b)
{
    return a.metricsJson == b.metricsJson && a.statsHash == b.statsHash &&
           a.counts == b.counts;
}

} // namespace

void
runSimSeq(const Args &args, Report &report, Tracer &tracer)
{
    const std::vector<RunOptions> points = simPoints(args.seed);
    report.note("points", std::to_string(points.size()) + " x 2^20 elements");

    for (int i = 0; i < kSetupRepeats; ++i)
        report.sample("setup_s", "s", planPoints(points, report));

    // Untimed warm-up repetition, and the reference every timed
    // repetition must reproduce exactly.
    std::vector<PointRun> warm;
    for (std::size_t i = 0; i < points.size(); ++i)
        warm.push_back(runPoint(points[i], nullptr, 0, i));

    std::vector<std::vector<PointRun>> reps;
    std::vector<double> tracedWall, untracedWall;
    // The traced run needs one traced and one untraced repetition.
    const std::size_t minReps = args.trace ? 2 : 1;
    const Clock::time_point phase0 = Clock::now();
    for (std::size_t rep = 0;
         rep < minReps || secondsSince(phase0) < args.seconds; ++rep) {
        // The traced run alternates traced and untraced repetitions
        // so the tracing overhead is measured inside one process.
        const bool traced = args.trace && rep % 2 == 0;
        Tracer *t = traced ? &tracer : nullptr;
        const Clock::time_point r0 = Clock::now();
        Span sweep(t, "sweep", Tracer::kNoParent, rep);
        std::vector<PointRun> runs;
        for (std::size_t i = 0; i < points.size(); ++i)
            runs.push_back(runPoint(points[i], t, sweep.index(), i));
        sweep.end();
        (traced ? tracedWall : untracedWall).push_back(secondsSince(r0));
        reps.push_back(std::move(runs));
    }

    // Output checks, outside the timed phase.
    for (const auto &runs : reps) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            const PointRun &r = runs[i];
            const std::string label = pointLabel(points[i]);
            std::string why;
            bool ok = streamBytesOk(points[i], r.counts, why);
            if (ok && r.result.verified && !r.result.correct) {
                ok = false;
                why = label + ": verification failed: " + r.result.why;
            }
            if (ok && !sameRun(r, warm[i])) {
                ok = false;
                why = label + ": metrics/stats differ between repetitions";
            }
            report.attempt(ok, why);
        }
    }

    // Host time is noisy on a shared machine: each point's time is
    // its median over the repetitions, and a sweep is the sum of
    // those, so one slow burst moves one sample of one point.
    double simulatedMs = 0, sweepSeconds = 0, runSeconds = 0,
           pimCommands = 0;
    std::vector<double> pointMs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<double> wall, run;
        for (const auto &runs : reps) {
            wall.push_back(runs[i].seconds);
            run.push_back(runs[i].result.hostSeconds);
        }
        sweepSeconds += median(wall);
        runSeconds += median(run);
        pointMs.push_back(median(wall) * 1e3);
        pimCommands += double(warm[i].result.metrics.pimCommands);
        simulatedMs += warm[i].result.metrics.execMs;
    }
    std::sort(pointMs.begin(), pointMs.end());
    report.value("wall_s", "s", sweepSeconds);
    report.value("ops_per_s", "1/s", double(points.size()) / sweepSeconds);
    report.value("ns_per_pim_cmd", "ns", runSeconds * 1e9 / pimCommands);
    report.value("simulated_ms", "ms", simulatedMs);
    report.value("latency_p50_ms", "ms", percentile(pointMs, 0.50));
    report.value("latency_p99_ms", "ms", percentile(pointMs, 0.99));
    report.note("repetitions", std::to_string(reps.size()));
    report.note("latency_samples", std::to_string(pointMs.size()));

    std::vector<const PointRun *> pass;
    for (const PointRun &r : reps.back())
        pass.push_back(&r);
    reportNotOnPath(report,
                    {"serve.router_hop_us", "serve.memory_hit_ratio",
                     "serve.disk_hit_ratio", "serve.busy_rejected",
                     "serve.failovers", "serve.peak_inflight"});

    if (!args.trace) {
        reportPointLayers(report, pass, nullptr, tracer);
        return;
    }

    // Traced run only: the decomposed point must reproduce
    // runWorkload()'s RunMetrics, plus observer and serve-stage
    // costs and the span bookkeeping.
    for (std::size_t i = 0; i < points.size(); ++i) {
        RunOptions o = points[i];
        o.verify = false;
        std::ostringstream os;
        runWorkload(o).metrics.writeJson(os);
        report.attempt(os.str() == pass[i]->metricsJson,
                       pointLabel(o) + ": runWorkload metrics differ");
    }
    // The event-domain counters: the first point through the
    // channel-partitioned driver with domain profiling on, which
    // must reproduce the sequential run exactly.
    RunOptions part = points.front();
    part.verify = false;
    part.simJobs = coresUpTo(4);
    part.profileDomains = true;
    const PointRun partitioned = runPoint(part, nullptr, 0, 0);
    report.attempt(sameRun(partitioned, warm.front()),
                   pointLabel(part) + ": simJobs=" +
                       std::to_string(part.simJobs) +
                       " metrics/stats differ from simJobs=1");
    reportPointLayers(report, pass, &partitioned, tracer);
    report.note("partitioned_sim_jobs", std::to_string(part.simJobs));

    report.value("verify.oracle_overhead_x", "x",
                 oracleOverheadX(points.front()));
    std::vector<std::pair<RunOptions, RunResult>> served;
    for (std::size_t i = 0; i < points.size(); ++i)
        served.emplace_back(points[i], pass[i]->result);
    probeServeStages(report, &tracer, args.scratch + "/probe-cas", served);
    report.value("serve.simulate_ms", "ms", percentile(pointMs, 0.50));

    const double coverage = tracer.minChildCoverage("point");
    report.value("trace.coverage", "ratio", coverage);
    report.attempt(coverage >= 0.95,
                   "point spans cover less than 95% of a point");
    if (!tracedWall.empty() && !untracedWall.empty()) {
        const double plain = median(untracedWall);
        report.value("trace.overhead_pct", "%",
                     (median(tracedWall) - plain) / plain * 100.0);
    }
}

} // namespace perfbench
