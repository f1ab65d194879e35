/**
 * @file
 * Cycle-accounting audit of a trace (rr::trace).
 *
 * The audit contract (docs/TRACE.md): a simulator's trace is the
 * complete record of everything it charged, so
 *
 *  1. per-component cycle sums over the trace must equal the
 *     corresponding end-of-run statistics fields *exactly* —
 *     useful, idle, switch, allocation, deallocation, load, unload,
 *     and queue cycles — and the sum of every charged event must
 *     equal total simulated time;
 *  2. every Figure 4 charge must appear exactly once per allocator /
 *     loader action, with exactly the cost model's amount: an
 *     allocation is charged once before the one load it admits, an
 *     unload is charged once and followed by exactly one
 *     deallocation, and a context never loads twice without an
 *     intervening unload or free;
 *  3. event end-times must be non-decreasing (the trace replays in
 *     simulation order).
 *
 * TraceAuditor is itself a TraceSink, so auditing is streaming — it
 * keeps O(threads) state and never stores the event stream, which is
 * what lets rrbench audit every simulation of a full sweep. The
 * per-thread state is one flag byte per tid, indexed directly (the
 * simulators emit dense tids 0..N-1), and a diagnostic string is
 * built only when its check fails, so a clean event costs a few
 * adds and compares.
 */

#ifndef RR_TRACE_AUDIT_HH
#define RR_TRACE_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/snapshot.hh"
#include "runtime/cost_model.hh"
#include "trace/sink.hh"

namespace rr::trace {

/**
 * The aggregate statistics a trace must reconcile with — a neutral
 * mirror of mt::MtStats (mt::auditTotals() converts), kept here so
 * the trace layer does not depend on the simulators it observes.
 */
struct AuditTotals
{
    uint64_t totalCycles = 0;
    uint64_t usefulCycles = 0;
    uint64_t idleCycles = 0;
    uint64_t switchCycles = 0;
    uint64_t allocCycles = 0;
    uint64_t deallocCycles = 0;
    uint64_t loadCycles = 0;
    uint64_t unloadCycles = 0;
    uint64_t queueCycles = 0;

    uint64_t faults = 0;
    uint64_t loads = 0;
    uint64_t unloads = 0;
    uint64_t allocSuccesses = 0;
    uint64_t allocFailures = 0;
    uint64_t threadsFinished = 0;
};

/**
 * Streaming trace auditor. Attach it as (one of) the simulation's
 * sinks, run the simulation, then call reconcile() with the reported
 * statistics; an empty problem list is the conservation proof.
 */
class TraceAuditor : public TraceSink, public ckpt::Restorable
{
  public:
    /** @param costs the cost model the simulation charged under. */
    explicit TraceAuditor(const runtime::CostModel &costs);

    void emit(const TraceEvent &event) override;

    /**
     * Checkpoint the running sums, per-thread lifecycle states, and
     * any streaming problems (rr.ckpt.v1 section 0x30), so an audit
     * resumed from a snapshot reconciles exactly like one that
     * watched the whole run. The cost model is configuration and is
     * not serialized.
     */
    void saveState(ckpt::Writer &writer) const override;
    void restoreState(const ckpt::Reader &reader) override;

    /** Checkpoint section tag used by TraceAuditor. */
    static constexpr uint32_t kCkptSection = 0x30;

    /**
     * Restore rejects thread ids at or above this bound, so a hostile
     * checkpoint cannot size the flag table to 2^32 entries. The
     * simulators' tids are dense and far below it (rrbench caps
     * --threads at 2^20, rrserve at 4096).
     */
    static constexpr uint32_t kTidLimit = 1u << 24;

    /**
     * Check the accumulated trace against @p totals.
     * @return all violations (streaming problems + reconciliation
     *         mismatches); empty means the trace conserves.
     */
    std::vector<std::string> reconcile(const AuditTotals &totals) const;

    /** Violations found while streaming (event-local checks). */
    const std::vector<std::string> &problems() const
    {
        return problems_;
    }

    uint64_t eventsSeen() const { return eventsSeen_; }
    uint64_t kindCycles(EventKind kind) const;
    uint64_t kindCount(EventKind kind) const;

  private:
    /**
     * Lifecycle flags of one simulated thread's context charges. The
     * allocated/loaded values are also the checkpoint encoding.
     */
    enum TidFlag : uint8_t
    {
        kAllocated = 1, ///< Alloc charged, not yet freed
        kLoaded = 2,    ///< Load charged, not yet un/freed
        kSeen = 4,      ///< some event named this tid
    };

    void problem(std::string text);
    /** Records "tid N <what> (cycle C)" for @p event's thread. */
    void tidProblem(const TraceEvent &event, const char *what);
    void checkCharge(const TraceEvent &event, uint64_t expect,
                     const char *what);

    runtime::CostModel costs_;
    uint64_t eventsSeen_ = 0;
    uint64_t lastCycle_ = 0;
    uint64_t sumCycles_[numEventKinds] = {};
    uint64_t countByKind_[numEventKinds] = {};
    uint64_t allocOk_ = 0;
    uint64_t allocFailed_ = 0;
    uint64_t finishFrees_ = 0;
    uint64_t suppressed_ = 0;
    std::vector<uint8_t> tids_; ///< TidFlag bits, indexed by tid
    std::vector<std::string> problems_;

    static constexpr std::size_t kMaxProblems = 32;
};

} // namespace rr::trace

#endif // RR_TRACE_AUDIT_HH
