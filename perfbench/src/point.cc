#include "point.hh"

#include <ftw.h>
#include <memory>
#include <sstream>

#include <sys/stat.h>

#include "core/system.hh"
#include "serve/cache.hh"
#include "serve/cas_store.hh"
#include "serve/protocol.hh"
#include "workloads/reference.hh"
#include "workloads/registry.hh"

using namespace olight;

namespace perfbench
{

void
SimCounts::add(const SimCounts &o)
{
    stallCycles += o.stallCycles;
    fenceWait += o.fenceWait;
    olWait += o.olWait;
    hops += o.hops;
    olCopies += o.olCopies;
    olMerges += o.olMerges;
    orderingBlocked += o.orderingBlocked;
    queueLatencySum += o.queueLatencySum;
    queueLatencyCount += o.queueLatencyCount;
    acts += o.acts;
    rowHits += o.rowHits;
    rowMisses += o.rowMisses;
    pimCommands += o.pimCommands;
    pimBytes += o.pimBytes;
}

namespace
{

double
distSum(const StatSet &stats, const std::string &name, double *count)
{
    const Distribution *d = stats.findDistribution(name);
    if (!d)
        return 0.0;
    if (count)
        *count += double(d->count());
    return d->sum();
}

SimCounts
harvest(const System &sys)
{
    const StatSet &st = sys.stats();
    const SystemConfig &cfg = sys.config();
    SimCounts c;
    c.stallCycles = st.sumScalars("sm", ".stallCycles");
    for (std::uint32_t i = 0; i < cfg.numSms; ++i) {
        const std::string sm = "sm" + std::to_string(i);
        c.fenceWait += distSum(st, sm + ".fenceWait", nullptr);
        c.olWait += distSum(st, sm + ".olWait", nullptr);
    }
    c.hops = st.sumScalars("", ".forwarded");
    c.olCopies = st.sumScalars("", ".div.olCopies");
    c.olMerges = st.sumScalars("", ".conv.olMerges");
    c.orderingBlocked = st.sumScalars("mc", ".orderingBlocked");
    for (std::uint32_t ch = 0; ch < cfg.numChannels; ++ch)
        c.queueLatencySum +=
            distSum(st, "mc" + std::to_string(ch) + ".queueLatency",
                    &c.queueLatencyCount);
    c.acts = st.sumScalars("dram", ".acts");
    c.rowHits = st.sumScalars("dram", ".rowHits");
    c.rowMisses = st.sumScalars("dram", ".rowMisses");
    c.pimCommands = st.sumScalars("pim", ".commands");
    c.pimBytes = st.sumScalars("pim", ".bytes");
    return c;
}

DomainCounts
harvestDomains(const System &sys)
{
    DomainCounts d;
    const auto &profiles = sys.domainProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (i == 0) {
            d.hostSeconds = profiles[i].execSeconds;
            d.windows = double(profiles[i].windows);
        }
        d.allSeconds += profiles[i].execSeconds;
        d.mailboxMsgs += double(profiles[i].msgsOut);
        d.stallWindows += double(profiles[i].stallWindows);
    }
    return d;
}

} // namespace

RunOptions
makePoint(const PointDef &d, std::uint64_t elements, std::uint64_t seed)
{
    RunOptions o;
    o.workload = d.workload;
    o.elements = elements;
    o.mode = d.mode;
    o.tsBytes = d.tsBytes;
    o.bmf = 16;
    o.base.seed = seed;
    return o;
}

PointRun
runPoint(const RunOptions &opts, Tracer *tracer, std::size_t parent,
         std::uint64_t id)
{
    const Clock::time_point t0 = Clock::now();
    Span point(tracer, "point", parent, id);
    const std::size_t p = point.index();
    PointRun out;
    RunResult &result = out.result;

    SystemConfig cfg =
        configFor(opts.mode, opts.tsBytes, opts.bmf, opts.base);
    cfg.verifyOracle = opts.oracle || cfg.verifyOracle;

    Span build(tracer, "workloads.build", p, id);
    auto workload = makeWorkload(opts.workload);
    workload->build(cfg, opts.elements);
    for (const auto &stream : workload->streams()) {
        for (const auto &instr : stream) {
            if (instr.type == PimOpType::OrderPoint)
                ++result.orderPoints;
            else
                ++result.pimInstrCount;
        }
    }
    build.end();

    ExecPolicy policy;
    policy.simJobs = opts.simJobs ? opts.simJobs : 1;
    policy.profileDomains = opts.profileDomains;

    Span ctor(tracer, "core.ctor", p, id);
    auto sys = std::make_unique<System>(cfg, policy);
    ctor.end();

    Span init(tracer, "workloads.init", p, id);
    workload->initMemory(sys->mem());
    sys->loadPimKernel(workload->streams());
    init.end();

    {
        Span run(tracer, "core.run", p, id);
        const Clock::time_point r0 = Clock::now();
        result.metrics = sys->run();
        result.hostSeconds = secondsSince(r0);
    }

    {
        Span stats(tracer, "core.stats", p, id);
        result.eventsExecuted = sys->eventsExecuted();
        out.counts = harvest(*sys);
        if (sys->partitioned())
            out.domains = harvestDomains(*sys);
        std::ostringstream dump;
        sys->stats().dumpJson(dump);
        out.statsHash = fnv1a64(dump.str());
        std::ostringstream metrics;
        result.metrics.writeJson(metrics);
        out.metricsJson = metrics.str();
        if (const OrderingOracle *oracle = sys->oracle()) {
            result.oracleViolations = oracle->violationCount();
            result.oracleChecks = oracle->checksPerformed();
            if (!oracle->clean()) {
                std::ostringstream os;
                oracle->report(os);
                result.oracleReport = os.str();
            }
        }
    }

    std::unique_ptr<SparseMemory> golden;
    if (opts.verify) {
        result.verified = true;
        result.correct = true;
        {
            Span g(tracer, "verify.golden", p, id);
            golden = std::make_unique<SparseMemory>();
            workload->initMemory(*golden);
            runGolden(cfg, workload->map(), workload->streams(), *golden);
        }
        {
            Span c(tracer, "verify.compare", p, id);
            for (const auto &arr : workload->arrays()) {
                if (!compareArray(sys->mem(), *golden, arr, result.why)) {
                    result.correct = false;
                    break;
                }
            }
        }
        Span check(tracer, "verify.check", p, id);
        if (result.correct && !workload->check(sys->mem(), result.why))
            result.correct = false;
    }

    {
        // Freeing the functional memories and event heaps is part of
        // every point's cost.
        Span teardown(tracer, "core.teardown", p, id);
        golden.reset();
        sys.reset();
        workload.reset();
    }
    point.end();
    out.seconds = secondsSince(t0);
    return out;
}

std::string
runRequestLine(const RunOptions &opts)
{
    std::ostringstream os;
    os << "{\"cmd\":\"run\",\"workload\":\"" << opts.workload
       << "\",\"elements\":" << opts.elements << ",\"mode\":\""
       << modeFlagName(opts.mode) << "\",\"ts\":" << opts.tsBytes
       << ",\"bmf\":" << opts.bmf << ",\"seed\":" << opts.base.seed
       << ",\"verify\":" << (opts.verify ? "true" : "false") << "}";
    return os.str();
}

std::string
pointLabel(const RunOptions &opts)
{
    std::ostringstream os;
    os << opts.workload << "/" << modeFlagName(opts.mode) << "/ts"
       << opts.tsBytes << "/" << opts.elements;
    return os.str();
}

bool
streamBytesOk(const RunOptions &opts, const SimCounts &c,
              std::string &why)
{
    if (workloadFamily(opts.workload) != WorkloadFamily::Stream)
        return true;
    const bool twoArrays =
        opts.workload == "Copy" || opts.workload == "Scale";
    const double want =
        (twoArrays ? 2.0 : 3.0) * 4.0 * double(opts.elements);
    if (c.pimBytes == want)
        return true;
    why = pointLabel(opts) + ": pim.bytes " +
          std::to_string(std::uint64_t(c.pimBytes)) + " != " +
          std::to_string(std::uint64_t(want));
    return false;
}

void
reportPointLayers(Report &report, const std::vector<const PointRun *> &pass,
                  const PointRun *partitioned, const Tracer &tracer)
{
    SimCounts c;
    const DomainCounts d = partitioned ? partitioned->domains
                                       : DomainCounts{};
    double instrs = 0, events = 0, runSeconds = 0;
    for (const PointRun *p : pass) {
        c.add(p->counts);
        instrs += double(p->result.pimInstrCount);
        events += double(p->result.eventsExecuted);
        runSeconds += p->result.hostSeconds;
    }
    report.value("workloads.instrs", "count", instrs);
    report.value("sim.events", "count", events);
    report.value("sim.events_per_pim_cmd", "ratio",
                 c.pimCommands ? events / c.pimCommands : 0.0);
    report.value("sim.ns_per_event", "ns",
                 events ? runSeconds * 1e9 / events : 0.0);
    report.value("sim.host_domain_share", "ratio",
                 d.allSeconds ? d.hostSeconds / d.allSeconds : 0.0);
    report.value("sim.windows", "count", d.windows);
    report.value("sim.mailbox_msgs", "count", d.mailboxMsgs);
    report.value("sim.stall_windows", "count", d.stallWindows);
    report.value("gpu.stall_cycles", "cycles", c.stallCycles);
    report.value("gpu.fence_wait", "cycles", c.fenceWait);
    report.value("gpu.ol_wait", "cycles", c.olWait);
    report.value("noc.hops", "count", c.hops);
    report.value("noc.ol_copies", "count", c.olCopies);
    report.value("noc.ol_merges", "count", c.olMerges);
    report.value("memctrl.ordering_blocked", "count", c.orderingBlocked);
    report.value("memctrl.queue_latency", "cycles",
                 c.queueLatencyCount
                     ? c.queueLatencySum / c.queueLatencyCount
                     : 0.0);
    report.value("dram.acts", "count", c.acts);
    report.value("dram.row_hit_ratio", "ratio",
                 c.rowHits + c.rowMisses
                     ? c.rowHits / (c.rowHits + c.rowMisses)
                     : 0.0);
    report.value("pim.commands", "count", c.pimCommands);
    report.value("pim.bytes", "B", c.pimBytes);

    // Span-derived: mean self seconds per point of each layer.
    const auto layers = tracer.layerTimes();
    auto perPoint = [&](const char *span) {
        auto it = layers.find(span);
        return it == layers.end() || !it->second.count
                   ? 0.0
                   : it->second.selfSeconds / double(it->second.count);
    };
    report.value("workloads.build_s", "s", perPoint("workloads.build"));
    report.value("workloads.init_s", "s", perPoint("workloads.init"));
    report.value("core.ctor_s", "s", perPoint("core.ctor"));
    report.value("core.run_s", "s", perPoint("core.run"));
    report.value("verify.golden_s", "s", perPoint("verify.golden"));
    report.value("verify.compare_s", "s", perPoint("verify.compare"));
}

double
oracleOverheadX(RunOptions opts)
{
    opts.verify = false;
    opts.oracle = false;
    const double plain = runPoint(opts, nullptr, 0, 0).result.hostSeconds;
    opts.oracle = true;
    const double observed =
        runPoint(opts, nullptr, 0, 0).result.hostSeconds;
    return plain > 0 ? observed / plain : 0.0;
}

void
probeServeStages(Report &report, Tracer *tracer,
                 const std::string &casRoot,
                 const std::vector<std::pair<RunOptions, RunResult>> &points)
{
    constexpr int kRepeats = 16;
    serve::ResultCache cache(points.size() + 1);
    serve::CasStore cas(serve::CasOptions{casRoot, 0});
    std::vector<double> parse, fp, get, put, body, casPut, casGet;
    auto timed = [&](std::vector<double> &into, const char *span,
                     auto &&fn) {
        Span s(tracer, span);
        const Clock::time_point t0 = Clock::now();
        fn();
        into.push_back(secondsSince(t0) * 1e6);
    };
    for (const auto &[opts, result] : points) {
        const std::string line = runRequestLine(opts);
        const std::uint64_t want = fingerprint(opts);
        bool ok = true;
        for (int i = 0; i < kRepeats; ++i) {
            serve::Request req;
            std::string err, text, reply, back;
            std::uint64_t got = 0;
            timed(parse, "serve.parse",
                  [&] { ok &= serve::parseRequest(line, req, err); });
            timed(fp, "serve.fingerprint",
                  [&] { got = fingerprint(req.run); });
            timed(body, "serve.body", [&] {
                text = serve::runBody(opts, result);
                reply = serve::okReply("", serve::Cmd::Run, got, true,
                                       text);
            });
            timed(put, "serve.cache_put", [&] { cache.put(got, text); });
            timed(get, "serve.cache_get",
                  [&] { ok &= cache.get(got, back) && back == text; });
            timed(casPut, "serve.cas_put", [&] { cas.put(got, text); });
            timed(casGet, "serve.cas_get",
                  [&] { ok &= cas.get(got, back) && back == text; });
            ok &= got == want;
        }
        report.attempt(ok, pointLabel(opts) +
                               ": serve stage disagrees with the "
                               "direct computation");
    }
    report.value("serve.parse_us", "us", median(parse));
    report.value("serve.fingerprint_us", "us", median(fp));
    report.value("serve.body_us", "us", median(body));
    report.value("serve.cache_put_us", "us", median(put));
    report.value("serve.cache_get_us", "us", median(get));
    report.value("serve.cas_put_us", "us", median(casPut));
    report.value("serve.cas_get_us", "us", median(casGet));
}

void
reportNotOnPath(Report &report, const std::vector<std::string> &names)
{
    std::string list;
    for (const std::string &name : names) {
        report.value(name, "n/a", 0.0);
        list += (list.empty() ? "" : " ") + name;
    }
    report.note("not_on_path", list);
}

namespace
{

int
removeOne(const char *path, const struct stat *, int, struct FTW *)
{
    return ::remove(path);
}

} // namespace

void
removeTree(const std::string &path)
{
    ::nftw(path.c_str(), removeOne, 16, FTW_DEPTH | FTW_PHYS);
}

} // namespace perfbench
