/**
 * @file
 * Grid-sweep driver: runs (workloads x modes x TS x BMF) and emits
 * CSV — the raw data behind any of the paper's figures, ready for
 * external plotting.
 *
 *   olight_sweep --workloads Add,Scale --modes fence,orderlight \
 *                --ts 128,256,512,1024 --bmf 16 --out sweep.csv
 *
 * Grid points are independent simulations, so the sweep runs on a
 * worker pool (--jobs N, default one per hardware thread); the CSV
 * is byte-identical for every worker count.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "cli_common.hh"
#include "core/sweep.hh"
#include "sim/thread_pool.hh"
#include "workloads/registry.hh"

using namespace olight;
using olight::cli::splitCsv;

namespace
{

/** Number parsing that survives typos: `--ts x` names the flag and
 *  exits 2 instead of dying on an uncaught std::invalid_argument. */
std::uint64_t
parseNumber(const std::string &flag, const std::string &value)
{
    return cli::parseNumber("olight_sweep", flag, value);
}

} // namespace

int
main(int argc, char **argv)
{
    SweepSpec spec;
    spec.jobs = 0; // one worker per hardware thread
    std::string out_path, json_path;
    std::vector<WorkloadFamily> families;
    bool workloads_set = false;
    bool timing = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workloads") {
            std::string v = next();
            spec.workloads =
                v == "all" ? workloadNames() : splitCsv(v);
            workloads_set = true;
        } else if (arg == "--family") {
            for (const auto &f : splitCsv(next()))
                families.push_back(cli::parseFamily(f));
        } else if (arg == "--modes") {
            spec.modes.clear();
            for (const auto &m : splitCsv(next()))
                spec.modes.push_back(cli::parseMode(m));
        } else if (arg == "--ts") {
            spec.tsSizes.clear();
            for (const auto &t : splitCsv(next()))
                spec.tsSizes.push_back(
                    std::uint32_t(parseNumber(arg, t)));
        } else if (arg == "--bmf") {
            spec.bmfs.clear();
            for (const auto &b : splitCsv(next()))
                spec.bmfs.push_back(
                    std::uint32_t(parseNumber(arg, b)));
        } else if (arg == "--elements") {
            spec.elements = parseNumber(arg, next());
        } else if (arg == "--verify") {
            spec.verify = true;
        } else if (arg == "--gpu-baseline") {
            spec.gpuBaseline = true;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--stats-json") {
            json_path = next();
        } else if (arg == "--jobs" || arg == "-j") {
            spec.jobs = unsigned(parseNumber(arg, next()));
        } else if (arg == "--sim-jobs") {
            spec.simJobs = unsigned(parseNumber(arg, next()));
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: olight_sweep [--workloads a,b|all] "
                   "[--modes " << modeNamesJoined(true, ',')
                << "]\n"
                   "  [--family stream,app,txn,bitwise (select or "
                   "filter workloads)]\n"
                   "  [--ts 128,256,...] [--bmf 4,8,16] "
                   "[--elements N] [--verify]\n"
                   "  [--gpu-baseline] [--out FILE] "
                   "[--stats-json FILE]\n"
                   "  [--jobs N (0 = auto)] [--sim-jobs N "
                   "(0 = auto, intra-run workers)] [--timing]\n";
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return 2;
        }
    }

    // Resolve --family: with no explicit --workloads it selects the
    // named families' workloads; otherwise it filters the given
    // list. Either way every name must be registered.
    if (!families.empty() && !workloads_set) {
        spec.workloads.clear();
        for (WorkloadFamily family : families)
            for (const auto &name : workloadNames(family))
                spec.workloads.push_back(name);
    }
    for (const auto &name : spec.workloads) {
        if (!findWorkload(name)) {
            std::cerr << unknownWorkloadMessage(name) << "\n";
            return 2;
        }
    }
    if (!families.empty() && workloads_set) {
        std::vector<std::string> kept;
        for (const auto &name : spec.workloads) {
            WorkloadFamily family = workloadFamily(name);
            if (std::find(families.begin(), families.end(),
                          family) != families.end())
                kept.push_back(name);
        }
        spec.workloads = std::move(kept);
    }
    if (spec.workloads.empty()) {
        std::cerr << "olight_sweep: no workloads selected\n";
        return 2;
    }

    cli::enforceLimits("olight_sweep", spec.elements,
                       std::max<std::uint64_t>(spec.jobs,
                                               spec.simJobs),
                       spec.points());
    std::string size_why;
    if (!checkSweepElements(spec, size_why)) {
        std::cerr << "olight_sweep: " << size_why << "\n";
        return 2;
    }
    if (spec.simJobs == 0)
        spec.simJobs = ThreadPool::defaultThreads();

    std::cerr << "sweeping " << spec.points() << " points ("
              << (spec.jobs ? spec.jobs
                            : ThreadPool::defaultThreads())
              << " workers)...\n";
    // Progress sink owned by this call site (see SweepProgress):
    // one whole line per completed point on stderr, as always.
    auto rows = runSweep(spec, [](const SweepRow &row) {
        std::cerr << progressLine(row) << "\n";
    });

    if (out_path.empty()) {
        writeCsv(std::cout, rows, timing);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "cannot open " << out_path << "\n";
            return 2;
        }
        writeCsv(out, rows, timing);
        std::cerr << "wrote " << rows.size() << " rows to "
                  << out_path << "\n";
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot open " << json_path << "\n";
            return 2;
        }
        writeJsonRows(out, rows, timing);
        std::cerr << "wrote " << rows.size() << " rows to "
                  << json_path << "\n";
    }

    if (spec.verify) {
        for (const auto &row : rows) {
            if (row.verified && !row.correct) {
                std::cerr << "VERIFICATION FAILED at "
                          << row.workload << "/"
                          << toString(row.mode) << "\n";
                return 1;
            }
        }
    }
    return 0;
}
