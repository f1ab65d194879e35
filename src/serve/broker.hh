/**
 * @file
 * The rrserve request broker: everything between a parsed request
 * and its response bytes, with no sockets involved.
 *
 * serveBatch() is the scheduler's whole job: check each request
 * against the result cache, coalesce the misses into one
 * deduplicated execution plan, fan the unique units out on the
 * deterministic worker pool (exp/engine.hh), audit every simulation
 * with a streaming TraceAuditor, assemble each request's rr.bench.v1
 * document, and fill the cache. Tests drive the broker directly
 * (tests/test_serve.cc) — the HTTP layer adds transport, nothing
 * else.
 *
 * Every simulation the broker serves is cycle-audited: the unit's
 * trace is reconciled against its reported statistics, and any
 * violation turns the affected requests into audit-failure errors
 * instead of silently serving unverified numbers.
 */

#ifndef RR_SERVE_BROKER_HH
#define RR_SERVE_BROKER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.hh"
#include "serve/protocol.hh"

namespace rr::serve {

/** Broker counters, snapshotted for /v1/stats. */
struct BrokerCounters
{
    uint64_t requests = 0;    ///< simulate requests served
    uint64_t batches = 0;     ///< scheduler batches processed
    uint64_t unitsTotal = 0;  ///< units requested (pre-coalescing)
    uint64_t unitsUnique = 0; ///< units simulated after coalescing
    uint64_t simulations = 0; ///< simulations actually run
    uint64_t auditViolations = 0;
};

/** One served response. */
struct ServeResult
{
    int status = 200;
    std::string body;
    bool cacheHit = false;
};

class Broker
{
  public:
    /**
     * @param cache_entries result-cache budget (entries; 0 disables)
     * @param jobs worker threads for the simulation fan-out
     *             (0 = exp::defaultJobs(), resolved once, here)
     * @throws exp::EnvError when @p jobs is 0 and RR_BENCH_JOBS is
     *         invalid, so a serve batch never reads the environment.
     */
    Broker(std::size_t cache_entries, unsigned jobs);

    /**
     * Serve @p requests as one batch (cache, coalesce, simulate,
     * audit, respond). Returns one result per request, in order.
     */
    std::vector<ServeResult>
    serveBatch(const std::vector<ServeRequest> &requests);

    /**
     * Parse and serve one request body — parse errors become their
     * error documents with the matching HTTP status.
     */
    ServeResult serveBody(const std::string &body);

    CacheCounters cacheCounters() const { return cache_.counters(); }
    BrokerCounters counters() const;

  private:
    ResultCache cache_;
    unsigned jobs_;

    mutable std::mutex mutex_;
    BrokerCounters counters_;
};

/**
 * Run @p unit's simulation with a streaming cycle-conservation
 * auditor attached and reconcile the trace against the reported
 * statistics (docs/TRACE.md). Exposed for the unit tests.
 */
UnitResult runAuditedUnit(const SimUnit &unit);

} // namespace rr::serve

#endif // RR_SERVE_BROKER_HH
