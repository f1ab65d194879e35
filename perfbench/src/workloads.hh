/**
 * @file
 * The four benchmark workloads (perfbench/README.md has the table of
 * what each runs and why). Each fills an Outcome: checked operations,
 * repeated set-up times, measured rounds, operation latencies, the
 * simulated-output digest and, in a traced run, per-layer metrics.
 */

#ifndef RR_PERFBENCH_WORKLOADS_HH
#define RR_PERFBENCH_WORKLOADS_HH

#include "common.hh"
#include "multithread/mt_processor.hh"

namespace perf {

/** Simulated events, defined as rrbench's perf_events counts them. */
inline uint64_t
eventCount(const rr::mt::MtStats &s)
{
    return 2 * s.faults + s.loads + s.unloads + s.allocSuccesses +
           s.allocFailures + s.threadsFinished;
}

/** Figure 5 cache-fault sweep (never unload) through runParallel. */
void runFig5Sweep(const Options &opts, Outcome &out);

/** Figure 6 sync-fault sweep (two-phase unloading). */
void runFig6Sweep(const Options &opts, Outcome &out);

/** Example programs and the hooked sync/MT kernels on the machine. */
void runRriscExec(const Options &opts, Outcome &out);

/** Closed-loop hits, cold misses and malformed bodies via rrserve. */
void runServeMixed(const Options &opts, Outcome &out);

} // namespace perf

#endif // RR_PERFBENCH_WORKLOADS_HH
