/**
 * @file
 * Simulator-performance microbenchmark: times the sweep driver
 * (grid-level `jobs` parallelism) and the channel-partitioned
 * intra-run driver (`sim_jobs`) in wall clock, and writes
 * BENCH_sweep.json so the speedups are tracked across commits.
 *
 * The grid is 36 points (6 workloads — 4 STREAM plus one txn and
 * one bitwise representative — x 3 modes x 2 TS), each an
 * independent System, so the sweep should scale near-linearly
 * with cores until memory bandwidth saturates. The run also checks
 * that every worker count — grid-level AND intra-run — produces
 * byte-identical CSV: the determinism guarantee both drivers make.
 *
 * Honesty rules: `hardware_threads` is the raw
 * std::thread::hardware_concurrency() report, the multi-worker
 * configurations are picked from it, and on a machine without real
 * parallelism the speedup comparisons are *skipped with an explicit
 * "skipped_single_core" marker* rather than timed oversubscribed and
 * reported as a (meaningless) slowdown. The determinism checks and
 * the per-domain parallelism statistics are computed regardless:
 * they do not depend on core count.
 *
 * Each run also reports ns_per_pim_cmd: host nanoseconds spent in
 * System::run summed over the grid, divided by the simulated PIM
 * commands — the per-command cost of the simulator itself, without
 * kernel builds, golden runs or thread-pool overhead.
 *
 * Environment:
 *   OLIGHT_BENCH_ELEMENTS   problem size (default 2^18)
 *   OLIGHT_BENCH_JSON       output path (default BENCH_sweep.json)
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "core/sweep.hh"
#include "workloads/registry.hh"

using namespace olight;

namespace
{

std::uint64_t
benchElements()
{
    if (const char *env = std::getenv("OLIGHT_BENCH_ELEMENTS"))
        return std::strtoull(env, nullptr, 0);
    return 1ull << 18;
}

SweepSpec
benchSpec(unsigned jobs, unsigned simJobs)
{
    SweepSpec spec;
    // Four STREAM kernels plus one representative of each extension
    // family, so the committed JSON tracks the backend comparison
    // for every ordering idiom (streaming, transactional
    // conflict windows, bulk-bitwise row ops).
    spec.workloads = {"Add",   "Scale",    "Copy",
                      "Daxpy", "Txn_Xfer", "Bit_Xnor"};
    spec.modes = {OrderingMode::Fence, OrderingMode::OrderLight,
                  OrderingMode::Louvre};
    spec.tsSizes = {128, 512};
    spec.bmfs = {16};
    spec.elements = benchElements();
    spec.jobs = jobs;
    spec.simJobs = simJobs;
    return spec;
}

struct Sample
{
    unsigned jobs;
    unsigned simJobs;
    double seconds;
    std::uint64_t events;
    double runSeconds;         ///< sum of System::run host time
    std::uint64_t pimCommands; ///< simulated PIM commands
    std::string csv;
    std::vector<SweepRow> rows;
};

Sample
timeSweep(unsigned jobs, unsigned simJobs)
{
    Sample s;
    s.jobs = jobs;
    s.simJobs = simJobs;
    auto start = std::chrono::steady_clock::now();
    auto rows = runSweep(benchSpec(jobs, simJobs));
    s.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    s.events = 0;
    s.runSeconds = 0.0;
    s.pimCommands = 0;
    for (const auto &row : rows) {
        s.events += row.eventsExecuted;
        s.runSeconds += row.hostSeconds;
        s.pimCommands += row.metrics.pimCommands;
    }
    std::ostringstream csv;
    writeCsv(csv, rows);
    s.csv = csv.str();
    s.rows = std::move(rows);
    return s;
}

double
nsPerPimCmd(const Sample &s)
{
    return s.pimCommands ? s.runSeconds * 1e9 / double(s.pimCommands)
                         : 0.0;
}

void
printSample(const Sample &s)
{
    std::cout << "  jobs=" << s.jobs << " sim_jobs=" << s.simJobs
              << ": " << s.seconds << " s, "
              << double(s.events) / s.seconds / 1e6
              << " M events/s, " << nsPerPimCmd(s)
              << " ns/PIM command\n";
}

/** Simulated-time comparison of the three enforcing backends per
 *  grid point (workload x TS), normalized to Fence. The rows come
 *  from the deterministic sweep, so these numbers are stable across
 *  machines — unlike the wall-clock samples around them. */
void
writeBackendComparison(std::ostream &os,
                       const std::vector<SweepRow> &rows)
{
    auto execMs = [&](const std::string &workload, std::uint32_t ts,
                      OrderingMode mode) {
        for (const SweepRow &row : rows)
            if (row.workload == workload && row.tsBytes == ts &&
                row.mode == mode)
                return row.metrics.execMs;
        return 0.0;
    };
    bool first = true;
    for (const std::string &workload : benchSpec(1, 1).workloads) {
        for (std::uint32_t ts : benchSpec(1, 1).tsSizes) {
            double fence =
                execMs(workload, ts, OrderingMode::Fence);
            double ol =
                execMs(workload, ts, OrderingMode::OrderLight);
            double louvre =
                execMs(workload, ts, OrderingMode::Louvre);
            os << (first ? "" : ",\n")
               << "    {\"workload\": \"" << workload
               << "\", \"family\": \""
               << toString(workloadFamily(workload))
               << "\", \"ts\": " << ts
               << ", \"fence_ms\": " << fence
               << ", \"orderlight_ms\": " << ol
               << ", \"louvre_ms\": " << louvre
               << ", \"orderlight_speedup\": "
               << (ol > 0.0 ? fence / ol : 0.0)
               << ", \"louvre_speedup\": "
               << (louvre > 0.0 ? fence / louvre : 0.0) << "}";
            first = false;
        }
    }
    os << "\n";
}

void
writeRuns(std::ostream &os, const std::vector<Sample> &samples)
{
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        os << "    {\"jobs\": " << s.jobs << ", \"sim_jobs\": "
           << s.simJobs << ", \"host_seconds\": " << s.seconds
           << ", \"events_per_second\": "
           << double(s.events) / s.seconds
           << ", \"ns_per_pim_cmd\": " << nsPerPimCmd(s) << "}"
           << (i + 1 < samples.size() ? "," : "") << "\n";
    }
}

} // namespace

int
main()
{
    // Raw report, no fallback: 0 means "unknown", and anything
    // below 2 means no real parallelism to measure.
    const unsigned hw = std::thread::hardware_concurrency();
    const bool multicore = hw >= 2;

    std::cout << "perf sweep: " << benchSpec(1, 1).points()
              << " points, " << benchElements() << " elements, "
              << hw << " hardware threads"
              << (multicore ? "" : " (single core: speedup "
                                   "comparisons skipped)")
              << "\n";

    // Grid-level parallelism: worker counts picked from the actual
    // core count. Single-core machines time only the serial sweep.
    std::vector<unsigned> grid_jobs = {1};
    if (multicore)
        grid_jobs.push_back(std::min(4u, hw));
    if (hw > 4)
        grid_jobs.push_back(hw);

    std::vector<Sample> grid;
    for (unsigned jobs : grid_jobs) {
        grid.push_back(timeSweep(jobs, 1));
        printSample(grid.back());
    }

    // Intra-run parallelism: the channel-partitioned driver. The
    // determinism check below needs these rows even on one core;
    // the timing is only reported as a speedup when it means
    // something.
    std::vector<Sample> intra;
    intra.push_back(timeSweep(1, multicore ? std::min(4u, hw) : 4));
    printSample(intra.back());

    // Per-domain parallelism statistics of one partitioned run
    // (deterministic counters: windows, per-domain events, mailbox
    // traffic, lookahead stalls — plus wall-clock per domain).
    RunOptions prof;
    prof.workload = "Add";
    prof.elements = benchElements();
    prof.verify = false;
    prof.simJobs = 4;
    prof.profileDomains = true;
    std::string domainProfile =
        runWorkload(prof).domainProfileJson;

    bool identical = true;
    for (const Sample &s : grid)
        identical = identical && s.csv == grid.front().csv;
    for (const Sample &s : intra)
        identical = identical && s.csv == grid.front().csv;
    std::cout << "  csv across every jobs/sim_jobs combination: "
              << (identical ? "identical" : "DIVERGED") << "\n";

    const char *json_env = std::getenv("OLIGHT_BENCH_JSON");
    std::string json_path =
        json_env ? json_env : "BENCH_sweep.json";
    std::ofstream json(json_path);
    if (!json) {
        std::cerr << "cannot open " << json_path << "\n";
        return 2;
    }
    json << "{\n"
         << "  \"points\": " << benchSpec(1, 1).points() << ",\n"
         << "  \"elements\": " << benchElements() << ",\n"
         << "  \"modes\": [\"fence\", \"orderlight\", "
            "\"louvre\"],\n"
         << "  \"hardware_threads\": " << hw << ",\n"
         << "  \"events_total\": " << grid.front().events << ",\n"
         << "  \"csv_identical\": "
         << (identical ? "true" : "false") << ",\n"
         << "  \"backend_comparison\": [\n";
    writeBackendComparison(json, grid.front().rows);
    json << "  ],\n"
         << "  \"runs\": [\n";
    writeRuns(json, grid);
    json << "  ],\n"
         << "  \"sim_jobs_runs\": [\n";
    writeRuns(json, intra);
    json << "  ],\n";
    if (multicore) {
        double gridSpeedup =
            grid.front().seconds / grid.back().seconds;
        double intraSpeedup =
            grid.front().seconds / intra.back().seconds;
        json << "  \"speedup_max_jobs_vs_1\": " << gridSpeedup
             << ",\n"
             << "  \"sim_jobs_speedup_vs_sequential\": "
             << intraSpeedup << ",\n";
        std::cout << "  grid speedup (jobs="
                  << grid.back().jobs << " vs 1): " << gridSpeedup
                  << "x\n  intra-run speedup (sim_jobs="
                  << intra.back().simJobs
                  << " vs sequential): " << intraSpeedup << "x\n";
    } else {
        json << "  \"skipped_single_core\": true,\n";
    }
    json << "  \"domain_profile\": "
         << (domainProfile.empty() ? "null" : domainProfile)
         << "\n}\n";
    std::cout << "wrote " << json_path << "\n";

    return identical ? 0 : 1;
}
