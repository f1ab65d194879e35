#include "serve/broker.hh"

#include "exp/engine.hh"
#include "serve/coalesce.hh"
#include "trace/audit.hh"

namespace rr::serve {

UnitResult
runAuditedUnit(const SimUnit &unit)
{
    mt::MtConfig config = makeSpec(unit).build();
    trace::TraceAuditor auditor(config.costs);
    config.traceSink = &auditor;
    const mt::MtStats stats = mt::simulate(config);

    UnitResult result;
    result.efficiency = stats.efficiencyCentral;
    result.resident = stats.avgResidentContexts;
    const std::vector<std::string> problems =
        auditor.reconcile(mt::auditTotals(stats));
    if (!problems.empty()) {
        result.auditOk = false;
        result.auditProblem = problems.front();
    }
    return result;
}

Broker::Broker(std::size_t cache_entries, unsigned jobs)
    : cache_(cache_entries),
      jobs_(jobs == 0 ? exp::defaultJobs() : jobs)
{
}

std::vector<ServeResult>
Broker::serveBatch(const std::vector<ServeRequest> &requests)
{
    std::vector<ServeResult> results(requests.size());

    // Cache pass: hits are served from stored bytes untouched.
    std::vector<std::size_t> miss_indices;
    std::vector<ServeRequest> misses;
    std::vector<std::string> miss_keys;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::string key = canonicalKey(requests[i]);
        if (auto hit = cache_.get(key)) {
            results[i] = {200, std::move(*hit), true};
            continue;
        }
        miss_indices.push_back(i);
        misses.push_back(requests[i]);
        miss_keys.push_back(std::move(key));
    }

    // Coalesce the misses and simulate each unique unit once, on
    // the deterministic worker pool. Each task writes only its own
    // slot; the assembly below reads them in fixed request order.
    const BatchPlan plan = planBatch(misses);
    std::vector<UnitResult> unit_results(plan.unique.size());
    exp::runParallel(
        plan.unique.size(),
        [&](std::size_t i) {
            unit_results[i] = runAuditedUnit(plan.unique[i]);
        },
        jobs_);

    uint64_t violations = 0;
    for (std::size_t m = 0; m < misses.size(); ++m) {
        const std::vector<UnitResult> mine =
            gatherResults(plan, m, unit_results);
        const UnitResult *failed = nullptr;
        for (const UnitResult &result : mine) {
            if (!result.auditOk) {
                failed = &result;
                break;
            }
        }
        ServeResult &out = results[miss_indices[m]];
        if (failed != nullptr) {
            ++violations;
            const ProtocolError error{
                ErrorCode::AuditFailure,
                "cycle-conservation audit failed: " +
                    failed->auditProblem};
            out = {errorHttpStatus(error.code),
                   errorDocument(error), false};
            continue; // never cache an unverified result
        }
        out = {200, resultDocument(misses[m], mine), false};
        cache_.put(miss_keys[m], out.body);
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.requests += requests.size();
        counters_.batches += 1;
        counters_.unitsTotal += plan.totalUnits;
        counters_.unitsUnique += plan.unique.size();
        counters_.simulations += plan.unique.size();
        counters_.auditViolations += violations;
    }
    return results;
}

ServeResult
Broker::serveBody(const std::string &body)
{
    try {
        return serveBatch({parseRequest(body)}).front();
    } catch (const ProtocolError &error) {
        return {errorHttpStatus(error.code), errorDocument(error),
                false};
    }
}

BrokerCounters
Broker::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

} // namespace rr::serve
