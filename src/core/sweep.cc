#include "core/sweep.hh"

#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "sim/json.hh"
#include "sim/thread_pool.hh"
#include "workloads/registry.hh"

namespace olight
{

namespace
{

/** RFC-4180 quoting for fields that would break the CSV schema. */
std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string quoted = "\"";
    for (char c : text) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

/** One enumerated grid point (row-major index order). */
struct SweepPoint
{
    std::size_t workloadIdx;
    OrderingMode mode;
    std::uint32_t tsBytes;
    std::uint32_t bmf;
};

std::vector<SweepPoint>
enumeratePoints(const SweepSpec &spec)
{
    std::vector<SweepPoint> points;
    points.reserve(spec.points());
    for (std::size_t w = 0; w < spec.workloads.size(); ++w)
        for (OrderingMode mode : spec.modes)
            for (std::uint32_t ts : spec.tsSizes)
                for (std::uint32_t bmf : spec.bmfs)
                    points.push_back({w, mode, ts, bmf});
    return points;
}

} // namespace

std::string
progressLine(const SweepRow &row)
{
    std::ostringstream os;
    os << row.workload << "/" << toString(row.mode) << "/ts"
       << row.tsBytes << "/bmf" << row.bmf << ": "
       << row.metrics.execMs << " ms";
    if (row.verified)
        os << (row.correct ? " [ok]" : " [WRONG]");
    return os.str();
}

std::uint64_t
fingerprint(const SweepSpec &spec)
{
    std::ostringstream os;
    os << "sweep;elements=" << spec.elements << ";verify="
       << (spec.verify ? 1 : 0) << ";gpuBaseline="
       << (spec.gpuBaseline ? 1 : 0) << ";workloads=";
    for (const auto &w : spec.workloads)
        os << w << ',';
    os << ";modes=";
    for (OrderingMode m : spec.modes)
        os << modeFlagName(m) << ',';
    os << ";ts=";
    for (std::uint32_t t : spec.tsSizes)
        os << t << ',';
    os << ";bmf=";
    for (std::uint32_t b : spec.bmfs)
        os << b << ',';
    os << ";base=";
    spec.base.canonicalize(os);
    return fnv1a64(os.str());
}

std::vector<SweepSpec>
singlePointSpecs(const SweepSpec &spec)
{
    std::vector<SweepSpec> out;
    out.reserve(spec.points());
    for (const SweepPoint &pt : enumeratePoints(spec)) {
        SweepSpec one = spec;
        one.workloads = {spec.workloads[pt.workloadIdx]};
        one.modes = {pt.mode};
        one.tsSizes = {pt.tsBytes};
        one.bmfs = {pt.bmf};
        out.push_back(std::move(one));
    }
    return out;
}

bool
checkSweepElements(const SweepSpec &spec, std::string &why)
{
    for (const auto &workload : spec.workloads)
        for (OrderingMode mode : spec.modes)
            for (std::uint32_t ts : spec.tsSizes)
                for (std::uint32_t bmf : spec.bmfs)
                    if (!makeWorkload(workload)->fitsElements(
                            configFor(mode, ts, bmf, spec.base),
                            spec.elements, why))
                        return false;
    return true;
}

std::vector<SweepRow>
runSweep(const SweepSpec &spec, const SweepProgress &progress)
{
    const std::vector<SweepPoint> points = enumeratePoints(spec);
    std::vector<SweepRow> rows(points.size());

    unsigned jobs =
        spec.jobs ? spec.jobs : ThreadPool::defaultThreads();

    // GPU-baseline cache, keyed on (workload, elements): the
    // baseline simulates the host streaming the workload's arrays,
    // so it is invariant across modes/TS/BMF but not across problem
    // sizes. Filling it up front (in parallel) leaves the grid phase
    // reading an immutable map — no locking on the hot path.
    std::map<std::pair<std::string, std::uint64_t>, double>
        gpu_cache;
    if (spec.gpuBaseline) {
        for (const auto &workload : spec.workloads)
            gpu_cache.emplace(
                std::make_pair(workload, spec.elements), 0.0);
        std::vector<double *> slots;
        std::vector<const std::pair<std::string, std::uint64_t> *>
            keys;
        for (auto &entry : gpu_cache) {
            keys.push_back(&entry.first);
            slots.push_back(&entry.second);
        }
        parallelFor(jobs, slots.size(), [&](std::size_t i) {
            *slots[i] = gpuBaselineMs(keys[i]->first,
                                      keys[i]->second, spec.base);
        });
    }

    std::mutex progress_mutex;
    parallelFor(jobs, points.size(), [&](std::size_t i) {
        const SweepPoint &pt = points[i];
        const std::string &workload = spec.workloads[pt.workloadIdx];

        RunOptions opts;
        opts.workload = workload;
        opts.mode = pt.mode;
        opts.tsBytes = pt.tsBytes;
        opts.bmf = pt.bmf;
        opts.elements = spec.elements;
        opts.verify = spec.verify;
        opts.base = spec.base;
        opts.simJobs = spec.simJobs ? spec.simJobs : 1;
        RunResult r = runWorkload(opts);

        SweepRow &row = rows[i];
        row.workload = workload;
        row.family = toString(workloadFamily(workload));
        WorkloadInfo info = makeWorkload(workload)->info();
        row.ratio = info.ratio;
        row.multiStructure = info.multiStructure;
        row.mode = pt.mode;
        row.tsBytes = pt.tsBytes;
        row.bmf = pt.bmf;
        row.metrics = r.metrics;
        row.verified = r.verified;
        row.correct = r.correct;
        row.hostSeconds = r.hostSeconds;
        row.eventsExecuted = r.eventsExecuted;
        row.configFingerprint = fingerprint(
            configFor(pt.mode, pt.tsBytes, pt.bmf, spec.base));
        if (spec.gpuBaseline)
            row.gpuMs =
                gpu_cache.at({workload, spec.elements});

        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(row);
        }
    });

    return rows;
}

void
writeCsv(std::ostream &os, const std::vector<SweepRow> &rows,
         bool timingColumns)
{
    os << "workload,mode,ts_bytes,bmf,exec_ms,command_bw_gcs,"
          "data_bw_gbs,pim_commands,stall_cycles,fences,ol_packets,"
          "wait_per_fence,wait_per_ol,ordering_per_instr,row_hits,"
          "row_misses,verified,correct,gpu_ms";
    if (timingColumns)
        os << ",host_seconds,events_per_second";
    os << "\n";
    for (const SweepRow &row : rows) {
        os << csvField(row.workload) << "," << toString(row.mode)
           << "," << row.tsBytes << "," << row.bmf << ","
           << row.metrics.execMs << "," << row.metrics.commandBwGCs
           << "," << row.metrics.dataBwGBs << ","
           << row.metrics.pimCommands << ","
           << row.metrics.stallCycles << ","
           << row.metrics.fenceCount << "," << row.metrics.olPackets
           << "," << row.metrics.waitPerFence << ","
           << row.metrics.waitPerOl << ","
           << row.metrics.orderingPerPimInstr() << ","
           << row.metrics.rowHits << "," << row.metrics.rowMisses
           << "," << (row.verified ? 1 : 0) << ","
           << (row.correct ? 1 : 0) << "," << row.gpuMs;
        if (timingColumns)
            os << "," << row.hostSeconds << ","
               << row.eventsPerSecond();
        os << "\n";
    }
}

void
writeJsonRow(std::ostream &os, const SweepRow &row,
             bool timingColumns)
{
    os << "{\"workload\":";
    jsonString(os, row.workload);
    os << ",\"mode\":";
    jsonString(os, toString(row.mode));
    os << ",\"ts_bytes\":" << row.tsBytes << ",\"bmf\":" << row.bmf
       << ",\"family\":";
    jsonString(os, row.family);
    os << ",\"ratio\":";
    jsonString(os, row.ratio);
    os << ",\"multi_structure\":"
       << (row.multiStructure ? "true" : "false")
       << ",\"config_fingerprint\":";
    jsonString(os, fingerprintHex(row.configFingerprint));
    os << ",\"verified\":" << (row.verified ? "true" : "false")
       << ",\"correct\":" << (row.correct ? "true" : "false")
       << ",\"gpu_ms\":";
    jsonNumber(os, row.gpuMs);
    os << ",\"metrics\":";
    row.metrics.writeJson(os);
    if (timingColumns) {
        os << ",\"host_seconds\":";
        jsonNumber(os, row.hostSeconds);
        os << ",\"events_per_second\":";
        jsonNumber(os, row.eventsPerSecond());
    }
    os << "}";
}

void
writeJsonRows(std::ostream &os, const std::vector<SweepRow> &rows,
              bool timingColumns)
{
    os << "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        os << (i ? ",\n" : "\n");
        writeJsonRow(os, rows[i], timingColumns);
    }
    os << "\n]\n";
}

} // namespace olight
