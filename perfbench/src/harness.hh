/**
 * @file
 * Measurement harness shared by every benchmark workload: sample
 * summaries (median, quartiles, count), the result report the
 * driver script reads, and the in-memory span tracer used by the
 * traced run.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
double secondsBetween(Clock::time_point t0, Clock::time_point t1);

/** Linear-interpolated percentile of a sorted sample, p in [0,1]. */
double percentile(const std::vector<double> &sorted, double p);

/** Median of an unsorted sample (0 when empty). */
double median(std::vector<double> values);

/** min(n, hardware threads), at least 1. */
unsigned coresUpTo(unsigned n);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** How one benchmark invocation is parameterised. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;       ///< result JSON path
    std::string traceOut;  ///< trace_event JSON path (traced run)
    std::string scratch;   ///< private working directory (CAS stores)
};

/**
 * Everything one invocation measured. Each metric keeps its raw
 * samples (one per repetition, or a single value); perfbench/run.py
 * derives median, quartiles and count from them.
 */
class Report
{
  public:
    /** Append one sample of @p name (unit fixed by first use). */
    void sample(const std::string &name, const std::string &unit,
                double v);
    /** Append many samples at once. */
    void samples(const std::string &name, const std::string &unit,
                 const std::vector<double> &vs);
    /** A single measured value (replaces earlier samples). */
    void value(const std::string &name, const std::string &unit,
               double v);
    /** A free-form fact about the run (seed, sample support...). */
    void note(const std::string &key, const std::string &text);

    /** Count one attempted operation; @p ok false also counts it
     *  failed and records @p why (first few kept). */
    void attempt(bool ok, const std::string &why = "");
    /** Count @p n attempts of which @p failed failed, for @p why. */
    void attempts(std::uint64_t n, std::uint64_t failed,
                  const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    void writeJson(std::ostream &os) const;

  private:
    struct Metric
    {
        std::string unit;
        std::vector<double> values;
    };
    std::map<std::string, Metric> metrics_;
    std::map<std::string, std::string> notes_;
    std::vector<std::string> failures_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * In-memory span recorder. A span has a name, start, end, parent
 * span and the id of the point or request it belongs to; spans are
 * written as Chrome trace_event JSON at exit. A disabled tracer
 * records nothing. Thread-safe: serve workloads open spans from
 * several client threads.
 */
class Tracer
{
  public:
    static constexpr std::size_t kNoParent = ~std::size_t(0);

    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    std::size_t open(const char *name, std::size_t parent,
                     std::uint64_t id);
    void close(std::size_t span);

    struct LayerTime
    {
        double selfSeconds = 0.0;
        std::uint64_t count = 0;
    };
    /** Summed self time (duration minus the part covered by children)
     *  and span count per span name. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Per span named @p name: share of its duration covered by its
     *  children. Returns the smallest share (1 when none). */
    double minChildCoverage(const std::string &name) const;

    std::size_t spanCount() const;

    /** Chrome trace_event JSON ({"traceEvents":[...]}). */
    void writeChromeJson(std::ostream &os) const;

  private:
    struct Record
    {
        const char *name;
        std::size_t parent;
        std::uint64_t id;
        std::uint64_t thread;
        Clock::time_point start, end;
    };
    std::vector<double> selfSeconds() const;

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Record> spans_;
    Clock::time_point epoch_ = Clock::now();
};

/** RAII span; a no-op when @p tracer is null or disabled. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name,
         std::size_t parent = Tracer::kNoParent, std::uint64_t id = 0)
        : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
          index_(tracer_ ? tracer_->open(name, parent, id)
                         : Tracer::kNoParent)
    {}
    ~Span() { end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close early (idempotent). */
    void
    end()
    {
        if (tracer_)
            tracer_->close(index_);
        tracer_ = nullptr;
    }
    std::size_t index() const { return index_; }

  private:
    Tracer *tracer_;
    std::size_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
