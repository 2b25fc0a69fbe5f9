/**
 * @file
 * serve_hot: the fleet shape of bench_serve_fleet (3 in-process
 * backends, each with a private on-disk CAS, behind the in-process
 * fingerprint-sharding router), driven over loopback TCP. The hot
 * set is simulated during set-up, then two closed-loop clients cycle
 * over it, so socket, parse, fingerprint, memory tier, serialisation
 * and the router hop are measured with no simulation at all.
 */

#include <algorithm>
#include <memory>
#include <thread>

#include <sys/stat.h>

#include "bench.hh"
#include "point.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "sim/random.hh"

using namespace olight;
using namespace olight::serve;

namespace perfbench
{

namespace
{

constexpr int kBackends = 3;
constexpr int kSetupRepeats = 3;
/** Closed-loop clients (never more than the host's cores). */
constexpr unsigned kHotClients = 2;
/** Bound on any one reply, so a lost reply cannot hang the run. */
constexpr int kReplyTimeoutMs = 30000;
/** Router-hop probe round trips per hot point (traced run). */
constexpr int kHopRepeats = 20;

const std::uint64_t kSmallElements[] = {4096, 8192, 16384, 32768, 65536};

/** Hot set: one point per entry, elements drawn from the seed. */
const PointDef kHotPool[] = {
    {"Copy", OrderingMode::Fence, 256},
    {"Scale", OrderingMode::OrderLight, 512},
    {"Add", OrderingMode::Louvre, 128},
    {"Triad", OrderingMode::OrderLight, 1024},
    {"Daxpy", OrderingMode::Fence, 512},
    {"FC", OrderingMode::Louvre, 256},
    {"Hist", OrderingMode::OrderLight, 512},
    {"KMeans", OrderingMode::Fence, 128},
    {"Bit_RowFold", OrderingMode::Fence, 1024},
    {"Bit_Xnor", OrderingMode::Louvre, 256},
    {"Txn_Log", OrderingMode::OrderLight, 256},
    {"Txn_Xfer", OrderingMode::Louvre, 512},
};

/** Hot request @p i's simulation seed, below 2^53 so the JSON layer
 *  carries it exactly. */
std::uint64_t
requestSeed(std::uint64_t benchSeed, std::uint64_t i)
{
    return (hashMix(benchSeed, i) >> 12) + 2;
}

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextRange(i)]);
}

/** Backend name of fleet member @p i. */
std::string
backendName(std::size_t i)
{
    return "be" + std::to_string(i);
}

/** Index of the backend the router places @p fp on: the highest
 *  rendezvous score fnv1a64(fingerprintHex(fp) + "|" + name), the
 *  rule serve/router.hh documents. */
std::size_t
rendezvousOwner(std::uint64_t fp)
{
    const std::string key = fingerprintHex(fp) + "|";
    std::size_t best = 0;
    for (std::size_t i = 1; i < std::size_t(kBackends); ++i)
        if (fnv1a64(key + backendName(i)) > fnv1a64(key + backendName(best)))
            best = i;
    return best;
}

/** cached:false -> cached:true, so replies compare across tiers. */
std::string
normalized(std::string reply)
{
    const std::string cold = "\"cached\":false";
    const std::size_t p = reply.find(cold);
    if (p != std::string::npos)
        reply.replace(p, cold.size(), "\"cached\":true");
    return reply;
}

bool
isBusy(const std::string &reply)
{
    return reply.compare(0, 11, "{\"ok\":false") == 0 &&
           reply.find("\"code\":\"busy\"") != std::string::npos;
}

/** One client connection speaking the line protocol. */
class Client
{
  public:
    bool
    connect(std::uint16_t port, std::string &err)
    {
        fd_ = connectTcp("127.0.0.1", port, err);
        return fd_.valid();
    }

    /** One request, one reply; waits out `busy` (bounded). Empty on
     *  transport failure. */
    std::string
    roundTrip(const std::string &line)
    {
        for (int attempt = 0; attempt < 200; ++attempt) {
            std::string reply;
            if (!send(line) || !receive(reply))
                return "";
            if (!isBusy(reply))
                return reply;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return "";
    }

  private:
    bool send(const std::string &line)
    {
        return writeAll(fd_.get(), line + "\n");
    }
    /** Waits at most kReplyTimeoutMs for the reply to start. */
    bool
    receive(std::string &reply)
    {
        return readLine(fd_.get(), reply, carry_, nullptr, 100, 1 << 20,
                        kReplyTimeoutMs,
                        kReplyTimeoutMs) == ReadStatus::Line;
    }

    Fd fd_;
    std::string carry_;
};

/** Counters summed over the fleet. */
struct FleetTotals
{
    double memoryHits = 0, diskHits = 0, simulations = 0;
    double busyRejected = 0, peakInflight = 0, failovers = 0;
};

/** Three backends (private CAS each) behind one router. */
class Fleet
{
  public:
    explicit Fleet(const std::string &dir) : dir_(dir) {}
    ~Fleet()
    {
        router_.reset(); // drains and joins
        backends_.clear();
        removeTree(dir_);
    }
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    bool
    start(std::string &err)
    {
        removeTree(dir_);
        ::mkdir(dir_.c_str(), 0777);
        RouterOptions ropts;
        for (int i = 0; i < kBackends; ++i) {
            ServeOptions opts;
            opts.casRoot = dir_ + "/cas" + std::to_string(i);
            opts.jobs = 1;
            backends_.push_back(std::make_unique<Server>(opts));
            if (!backends_.back()->start(err))
                return false;
            BackendSpec spec;
            spec.port = backends_.back()->tcpPort();
            // Fixed names keep the rendezvous placement independent
            // of the ephemeral ports.
            spec.name = backendName(i);
            ropts.backends.push_back(spec);
        }
        router_ = std::make_unique<Router>(ropts);
        return router_->start(err);
    }

    std::uint16_t routerPort() const { return router_->tcpPort(); }
    std::uint16_t
    backendPort(std::size_t i) const
    {
        return backends_.at(i)->tcpPort();
    }

    FleetTotals
    totals() const
    {
        FleetTotals t;
        for (const auto &b : backends_) {
            const ServeSnapshot s = b->snapshot();
            t.memoryHits += double(s.cache.hits);
            t.diskHits += double(s.disk.hits);
            t.simulations += double(s.runsExecuted);
            t.busyRejected +=
                double(s.busyRejected + s.fairnessRejected);
            t.peakInflight =
                std::max(t.peakInflight, double(s.peakInflight));
        }
        t.failovers = double(router_->snapshot().failovers);
        return t;
    }

  private:
    std::string dir_;
    std::vector<std::unique_ptr<Server>> backends_;
    std::unique_ptr<Router> router_;
};

/**
 * Router hop: for each point (already cached in the fleet), the
 * median round trip through the router minus the median round trip
 * straight to the backend that owns it; median over points.
 */
double
routerHopUs(Fleet &fleet, const std::vector<RunOptions> &points,
            Tracer &tracer)
{
    Client routed;
    std::string err;
    routed.connect(fleet.routerPort(), err);
    std::vector<std::unique_ptr<Client>> backends;
    for (int b = 0; b < kBackends; ++b) {
        backends.push_back(std::make_unique<Client>());
        backends.back()->connect(fleet.backendPort(b), err);
    }
    std::vector<double> hops;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string line = runRequestLine(points[i]);
        Client &owner = *backends[rendezvousOwner(fingerprint(points[i]))];
        std::vector<double> viaRouter, direct;
        for (int k = 0; k < kHopRepeats; ++k) {
            Clock::time_point r0 = Clock::now();
            owner.roundTrip(line);
            direct.push_back(secondsSince(r0) * 1e6);
            Span hop(&tracer, "serve.routed_request", Tracer::kNoParent,
                     i);
            r0 = Clock::now();
            routed.roundTrip(line);
            viaRouter.push_back(secondsSince(r0) * 1e6);
        }
        hops.push_back(median(viaRouter) - median(direct));
    }
    return median(hops);
}

/** Cache-tier and admission counters over the timed phase. */
void
reportFleetDelta(Report &report, const FleetTotals &a,
                 const FleetTotals &b)
{
    const double mem = b.memoryHits - a.memoryHits;
    const double disk = b.diskHits - a.diskHits;
    const double sims = b.simulations - a.simulations;
    const double lookups = mem + disk + sims;
    report.value("serve.memory_hit_ratio", "ratio",
                 lookups ? mem / lookups : 0.0);
    report.value("serve.disk_hit_ratio", "ratio",
                 lookups ? disk / lookups : 0.0);
    report.value("serve.busy_rejected", "count",
                 b.busyRejected - a.busyRejected);
    report.value("serve.failovers", "count", b.failovers - a.failovers);
    report.value("serve.peak_inflight", "count", b.peakInflight);
}

} // namespace

void
runServeHot(const Args &args, Report &report, Tracer &tracer)
{
    Rng rng(args.seed);
    std::vector<RunOptions> points;
    for (const PointDef &d : kHotPool)
        points.push_back(makePoint(
            d, kSmallElements[rng.nextRange(std::size(kSmallElements))],
            requestSeed(args.seed, points.size())));
    shuffle(points, rng);
    std::vector<std::string> lines;
    for (const RunOptions &o : points)
        lines.push_back(runRequestLine(o));
    const std::size_t n = points.size();
    const unsigned clients = coresUpTo(kHotClients);
    report.note("hot_points", std::to_string(n));
    report.note("clients", std::to_string(clients));

    // Set-up: fleet start plus the warm-up pass that simulates and
    // caches the hot set. Repeated; the last fleet is measured.
    std::unique_ptr<Fleet> fleet;
    std::vector<std::string> warm;
    for (int s = 0; s < kSetupRepeats; ++s) {
        fleet.reset();
        const Clock::time_point t0 = Clock::now();
        fleet = std::make_unique<Fleet>(args.scratch + "/fleet");
        std::string err;
        if (!fleet->start(err)) {
            report.attempt(false, "fleet start: " + err);
            return;
        }
        Client c;
        c.connect(fleet->routerPort(), err);
        std::vector<std::string> replies;
        for (const std::string &line : lines)
            replies.push_back(normalized(c.roundTrip(line)));
        report.sample("setup_s", "s", secondsSince(t0));
        for (std::size_t i = 0; i < n; ++i) {
            const bool ok =
                replies[i].find("\"ok\":true") != std::string::npos &&
                (warm.empty() || warm[i] == replies[i]);
            report.attempt(ok, "warm-up " + pointLabel(points[i]) +
                                   ": " + replies[i].substr(0, 200));
        }
        warm = replies;
    }
    const FleetTotals before = fleet->totals();

    // Timed: closed loop, each client cycling over the hot set from
    // its own offset; one pass = every hot point once.
    struct Served
    {
        std::size_t point;
        double latencyNs;
        double doneAt; ///< seconds into the timed phase
    };
    struct ClientResult
    {
        std::vector<double> passes, traced, untraced;
        std::vector<Served> served;
        std::uint64_t attempted = 0, mismatched = 0;
        std::string firstBad;
    };
    std::vector<ClientResult> results(clients);
    const Clock::time_point phase0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ClientResult &res = results[c];
            Client client;
            std::string err;
            client.connect(fleet->routerPort(), err);
            for (std::size_t pass = 0;
                 pass == 0 || secondsSince(phase0) < args.seconds;
                 ++pass) {
                const bool traced = args.trace && pass % 2 == 0;
                Tracer *t = traced ? &tracer : nullptr;
                const Clock::time_point p0 = Clock::now();
                Span passSpan(t, "serve.pass", Tracer::kNoParent, pass);
                for (std::size_t k = 0; k < n; ++k) {
                    const std::size_t i = (k + c * n / clients) % n;
                    Span req(t, "serve.request", passSpan.index(), i);
                    const Clock::time_point r0 = Clock::now();
                    const std::string reply = client.roundTrip(lines[i]);
                    const double s = secondsSince(r0);
                    req.end();
                    res.served.push_back({i, s * 1e9, secondsSince(phase0)});
                    ++res.attempted;
                    if (reply != warm[i]) {
                        ++res.mismatched;
                        if (res.firstBad.empty())
                            res.firstBad = reply.substr(0, 200);
                    }
                }
                passSpan.end();
                const double wall = secondsSince(p0);
                res.passes.push_back(wall);
                (traced ? res.traced : res.untraced).push_back(wall);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const FleetTotals after = fleet->totals();

    // Per one-second window of the timed phase: request count and
    // latency percentiles (thousands of requests each, so p99 is
    // supported); the reported value is the median over windows, so
    // a scheduling burst moves only the windows it falls in.
    const std::size_t windows =
        std::max<std::size_t>(1, std::size_t(args.seconds));
    std::vector<std::vector<double>> byWindow(windows);
    std::vector<double> traced, untraced;
    std::vector<Served> served;
    std::uint64_t attempted = 0;
    for (const ClientResult &res : results) {
        for (const Served &s : res.served)
            if (std::size_t(s.doneAt) < windows)
                byWindow[std::size_t(s.doneAt)].push_back(s.latencyNs / 1e6);
        report.samples("wall_s", "s", res.passes);
        traced.insert(traced.end(), res.traced.begin(), res.traced.end());
        untraced.insert(untraced.end(), res.untraced.begin(),
                        res.untraced.end());
        served.insert(served.end(), res.served.begin(), res.served.end());
        attempted += res.attempted;
        report.attempts(res.attempted, res.mismatched,
                        "hot reply differs from its warm-up reply: " +
                            res.firstBad);
    }
    std::vector<double> rates, p50s, p99s;
    std::size_t perWindow = 0;
    for (std::vector<double> &w : byWindow) {
        if (w.empty())
            continue;
        std::sort(w.begin(), w.end());
        rates.push_back(double(w.size()));
        p50s.push_back(percentile(w, 0.50));
        p99s.push_back(percentile(w, 0.99));
        perWindow = std::max(perWindow, w.size());
    }
    report.value("ops_per_s", "1/s", median(rates));
    report.value("latency_p50_ms", "ms", median(p50s));
    report.value("latency_p99_ms", "ms", median(p99s));
    report.note("latency_samples", std::to_string(attempted));
    report.note("latency_windows",
                std::to_string(rates.size()) + " one-second windows, up to " +
                    std::to_string(perWindow) + " requests each");
    reportFleetDelta(report, before, after);

    // Every warm-up reply must equal the envelope around runBody of
    // a direct run of the same point. One thread: the hot set is
    // small, and one allocator arena keeps peak_rss_mb steady.
    std::vector<PointRun> direct;
    double simulatedMs = 0, simulateMs = 0;
    std::vector<const PointRun *> pass;
    for (std::size_t i = 0; i < n; ++i) {
        direct.push_back(runPoint(points[i], args.trace ? &tracer : nullptr,
                                  Tracer::kNoParent, i));
        const std::string want =
            okReply("", Cmd::Run, fingerprint(points[i]), true,
                    runBody(points[i], direct[i].result));
        report.attempt(want == warm[i], pointLabel(points[i]) +
                                            ": reply differs from the "
                                            "direct run");
        simulatedMs += direct[i].result.metrics.execMs;
        simulateMs += direct[i].seconds * 1e3;
    }
    for (const PointRun &d : direct)
        pass.push_back(&d);
    std::vector<double> perCommand;
    for (const Served &s : served)
        perCommand.push_back(
            s.latencyNs /
            double(direct[s.point].result.metrics.pimCommands));
    report.value("simulated_ms", "ms", simulatedMs);
    report.value("ns_per_pim_cmd", "ns", median(perCommand));
    report.value("serve.simulate_ms", "ms", simulateMs / double(n));
    reportPointLayers(report, pass, nullptr, tracer);

    if (!args.trace)
        return;

    // Traced run only: router hop, observer and serve-stage costs,
    // span coverage and tracing overhead (traced minus untraced
    // passes).
    report.value("serve.router_hop_us", "us",
                 routerHopUs(*fleet, points, tracer));
    report.value("verify.oracle_overhead_x", "x",
                 oracleOverheadX(points.front()));
    std::vector<std::pair<RunOptions, RunResult>> probed;
    for (std::size_t i = 0; i < n; ++i)
        probed.emplace_back(points[i], direct[i].result);
    probeServeStages(report, &tracer, args.scratch + "/probe-cas", probed);
    report.value("trace.coverage", "ratio", tracer.minChildCoverage("point"));
    if (!traced.empty() && !untraced.empty()) {
        const double plain = median(untraced);
        report.value("trace.overhead_pct", "%",
                     (median(traced) - plain) / plain * 100.0);
    }
}

} // namespace perfbench
