/**
 * @file
 * Deterministic parallel execution engine for the sweep harness.
 *
 * The figure sweeps decompose into a flat list of independent
 * simulation tasks (one per sweep point, architecture, and seed).
 * runParallel() executes such a list on a fixed-size worker pool;
 * each task writes only its own by-index result slot, and all
 * reductions happen afterwards in deterministic index order. The
 * job count therefore changes wall-clock time but never a single
 * digit of any result — the determinism contract documented in
 * docs/BENCH.md and enforced by tests/test_exp_sweep.cc.
 *
 * The pool size defaults to RR_BENCH_JOBS (see env.hh) and can be
 * overridden programmatically (rrbench's --jobs flag).
 */

#ifndef RR_EXP_ENGINE_HH
#define RR_EXP_ENGINE_HH

#include <cstddef>
#include <functional>

namespace rr::exp {

/**
 * Set the worker-pool size used when runParallel() is called with
 * jobs = 0. A value of 0 selects std::thread::hardware_concurrency.
 */
void setDefaultJobs(unsigned jobs);

/**
 * The effective worker-pool size: the last setDefaultJobs() value,
 * or RR_BENCH_JOBS when unset (default 1); 0 is resolved to the
 * hardware concurrency.
 * @throws EnvError when RR_BENCH_JOBS is read and is invalid.
 */
unsigned defaultJobs();

/**
 * Run fn(0), fn(1), ..., fn(count - 1), distributing indices over
 * @p jobs worker threads (jobs = 0 uses defaultJobs()). Tasks must
 * be independent: each may touch only its own result slot. Every
 * index runs exactly once; the call returns after all complete.
 * The first exception thrown by any task is rethrown on the caller.
 */
void runParallel(std::size_t count,
                 const std::function<void(std::size_t)> &fn,
                 unsigned jobs = 0);

} // namespace rr::exp

#endif // RR_EXP_ENGINE_HH
