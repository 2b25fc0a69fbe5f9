/**
 * @file
 * Batch experiment driver: runs a grid of (workload, ordering mode,
 * TS size, BMF) points — the shape of every figure in the paper —
 * and emits the results as CSV for external plotting. This is the
 * machinery behind the `olight_sweep` tool; the bench binaries use
 * narrower, figure-specific loops so their output mirrors the
 * paper's tables directly.
 *
 * Points are independent (one System each), so the grid runs on a
 * worker pool when SweepSpec::jobs > 1. Results are emitted in the
 * same deterministic row-major order regardless of the worker
 * count, and every metric is bit-identical to a serial run; only
 * the wall-clock self-measurement columns (host_seconds,
 * events_per_second) vary run to run, which is why writeCsv() omits
 * them unless asked.
 */

#ifndef OLIGHT_CORE_SWEEP_HH
#define OLIGHT_CORE_SWEEP_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/runner.hh"

namespace olight
{

/** The experiment grid. */
struct SweepSpec
{
    std::vector<std::string> workloads = {"Add"};
    std::vector<OrderingMode> modes = {OrderingMode::Fence,
                                       OrderingMode::OrderLight};
    std::vector<std::uint32_t> tsSizes = {128, 256, 512, 1024};
    std::vector<std::uint32_t> bmfs = {16};
    std::uint64_t elements = 1ull << 18;
    bool verify = false;
    bool gpuBaseline = false; ///< time host execution per workload
    SystemConfig base{};

    /**
     * Worker threads for the grid: 1 = serial (legacy behavior),
     * 0 = one per hardware thread, N = exactly N.
     */
    unsigned jobs = 1;

    /**
     * Intra-run event-execution workers per point (channel-
     * partitioned simulation; see core/system.hh). Orthogonal to
     * `jobs`: `jobs` parallelizes across grid points, `simJobs`
     * inside one simulation. Like jobs, never fingerprinted.
     */
    unsigned simJobs = 1;

    std::size_t
    points() const
    {
        return workloads.size() * modes.size() * tsSizes.size() *
               bmfs.size();
    }
};

/** One grid point's outcome. */
struct SweepRow
{
    std::string workload;
    OrderingMode mode;
    std::uint32_t tsBytes = 0;
    std::uint32_t bmf = 0;

    /// Workload metadata from the family-tagged registry (family
    /// name, Table 2 memory:compute ratio, multi-structure flag).
    std::string family;
    std::string ratio;
    bool multiStructure = false;
    RunMetrics metrics;
    bool verified = false;
    bool correct = false;
    double gpuMs = 0.0; ///< only when SweepSpec::gpuBaseline

    /// Simulator self-measurement for this point (wall clock).
    double hostSeconds = 0.0;
    std::uint64_t eventsExecuted = 0;

    /** Fingerprint of this point's derived configuration
     *  (configFor(mode, ts, bmf, base)); see core/config.hh. */
    std::uint64_t configFingerprint = 0;

    double
    eventsPerSecond() const
    {
        return hostSeconds > 0.0 ? double(eventsExecuted) /
                                       hostSeconds
                                 : 0.0;
    }
};

/**
 * Per-point progress sink: invoked once per completed grid point,
 * in completion order, serialized through a mutex when the sweep is
 * parallel — so one call never interleaves with another, and each
 * call site (CLI stderr, server stats counter, test capture) owns
 * its own sink instead of sharing a raw std::ostream*.
 */
using SweepProgress = std::function<void(const SweepRow &row)>;

/** Whether every grid point can build its workload at spec.elements
 *  (Workload::fitsElements); fills @p why for the first that cannot.
 *  @pre every workload name is registered. */
bool checkSweepElements(const SweepSpec &spec, std::string &why);

/**
 * Run the full grid (row-major: workload, mode, ts, bmf) on
 * SweepSpec::jobs workers. Row order and all simulated metrics are
 * identical for every jobs value. When @p progress is non-empty it
 * is called once per completed point (see SweepProgress).
 */
std::vector<SweepRow> runSweep(const SweepSpec &spec,
                               const SweepProgress &progress = {});

/**
 * One-line human progress rendering of a completed row, exactly the
 * format olight_sweep has always printed:
 * `Add/OrderLight/ts256/bmf16: 1.234 ms [ok]`.
 */
std::string progressLine(const SweepRow &row);

/**
 * Content fingerprint of a whole sweep request: grid axes, problem
 * size, verification knobs and the base configuration. jobs is
 * deliberately excluded — the worker count never changes simulated
 * results, so the daemon's cache hits across different jobs values.
 */
std::uint64_t fingerprint(const SweepSpec &spec);

/**
 * Decompose a grid into single-point sub-grids, one per point, in
 * the exact row-major order runSweep() emits rows (workload, mode,
 * ts, bmf). Each returned spec has one-element axes and inherits
 * elements/verify/gpuBaseline/base verbatim, so running all of them
 * independently and concatenating the single rows reproduces
 * runSweep(spec) bit-identically. This is how the fleet router fans
 * a sweep out across daemons (serve/router.hh): each sub-grid is an
 * independently fingerprintable, cacheable unit of work.
 */
std::vector<SweepSpec> singlePointSpecs(const SweepSpec &spec);

/**
 * Emit rows as CSV (with header). Fields containing commas, quotes,
 * or newlines are RFC-4180 quoted. @p timingColumns appends the
 * non-deterministic host_seconds / events_per_second columns.
 */
void writeCsv(std::ostream &os, const std::vector<SweepRow> &rows,
              bool timingColumns = false);

/**
 * Emit rows as a JSON array; each element carries the grid point,
 * verification outcome, and a nested "metrics" object (full
 * RunMetrics, see RunMetrics::writeJson). @p timingColumns appends
 * the non-deterministic host_seconds / events_per_second fields.
 */
void writeJsonRows(std::ostream &os,
                   const std::vector<SweepRow> &rows,
                   bool timingColumns = false);

/**
 * Emit one row's JSON object (no surrounding array, no newlines) —
 * the element format of writeJsonRows, shared with the serving
 * daemon's single-line replies.
 */
void writeJsonRow(std::ostream &os, const SweepRow &row,
                  bool timingColumns = false);

} // namespace olight

#endif // OLIGHT_CORE_SWEEP_HH
