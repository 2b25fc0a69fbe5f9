/**
 * @file
 * The benchmark's workloads. Each runs its set-up, one untimed
 * warm-up repetition and then timed repetitions for Args::seconds,
 * checks every output, and fills the report with its end-to-end
 * and per-layer metrics (see perfbench/README.md).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include "harness.hh"

namespace perfbench
{

void runSimSeq(const Args &args, Report &report, Tracer &tracer);

void runServeHot(const Args &args, Report &report, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
