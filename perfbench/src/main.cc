/**
 * @file
 * olight_perfbench: runs one benchmark workload and writes what it
 * measured as JSON. perfbench/run.py builds and invokes it; see
 * perfbench/README.md for the workloads and metrics.
 *
 * usage: olight_perfbench --workload NAME --seed N --seconds S
 *                         --trace 0|1 --out FILE --scratch DIR
 *                         [--trace-out FILE]
 * Exit status: 0 when every output check passed, 1 when one failed,
 * 2 on bad arguments.
 */

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include <sys/stat.h>

#include "bench.hh"
#include "point.hh"

using namespace perfbench;

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "olight_perfbench: " << why
              << "\nusage: olight_perfbench --workload "
                 "sim_seq|serve_hot --seed N "
                 "--seconds S --trace 0|1 --out FILE --scratch DIR "
                 "[--trace-out FILE]\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args, std::string &why)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            why = flag + " needs a value";
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        bool numeric = true;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            numeric = !value.empty() && value[0] != '-' && !*end;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            numeric = !value.empty() && !*end && args.seconds > 0;
        } else if (flag == "--trace") {
            args.trace = value == "1";
            numeric = value == "0" || value == "1";
        } else if (flag == "--out") {
            args.out = value;
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else if (flag == "--scratch") {
            args.scratch = value;
        } else {
            why = "unknown flag " + flag;
            return false;
        }
        if (!numeric) {
            why = flag + " got an invalid value: " + value;
            return false;
        }
    }
    if (args.workload.empty() || args.out.empty() ||
        args.scratch.empty()) {
        why = "--workload, --out and --scratch are required";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string why;
    if (!parseArgs(argc, argv, args, why))
        return usage(why);

    removeTree(args.scratch);
    ::mkdir(args.scratch.c_str(), 0777);

    Report report;
    Tracer tracer(args.trace);
    report.note("workload", args.workload);
    report.note("seed", std::to_string(args.seed));
    report.note("hardware_concurrency",
                std::to_string(std::thread::hardware_concurrency()));
    try {
        if (args.workload == "sim_seq")
            runSimSeq(args, report, tracer);
        else if (args.workload == "serve_hot")
            runServeHot(args, report, tracer);
        else
            return usage("unknown workload " + args.workload);
    } catch (const std::exception &e) {
        report.attempt(false, std::string("exception: ") + e.what());
    }

    report.value("peak_rss_mb", "MiB", peakRssMb());
    report.value("error_rate", "ratio",
                 report.attempted()
                     ? double(report.failed()) / double(report.attempted())
                     : 1.0);
    if (args.trace) {
        report.value("trace.spans", "count", double(tracer.spanCount()));
        for (const auto &[name, t] : tracer.layerTimes())
            report.value("self." + name, "s", t.selfSeconds);
        if (!args.traceOut.empty()) {
            std::ofstream trace(args.traceOut);
            tracer.writeChromeJson(trace);
        }
    }
    removeTree(args.scratch);

    std::ofstream out(args.out);
    report.writeJson(out);
    out.close();
    if (!out) {
        std::cerr << "olight_perfbench: cannot write " << args.out << "\n";
        return 2;
    }
    return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
