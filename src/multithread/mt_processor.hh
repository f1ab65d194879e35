/**
 * @file
 * The multithreaded-node simulator used for every experiment in
 * Section 3 of the paper.
 *
 * It models one node of a coarsely multithreaded multiprocessor
 * (APRIL-like): the processor executes the current thread until a
 * long-latency fault occurs, then spends S cycles switching to the
 * next loaded, runnable context. Context allocation, loading and
 * unloading, and thread queue manipulation are charged the cycle
 * costs of Figure 4 (see runtime::CostModel). The simulation is
 * event-driven: time advances in lumps (run segments and charged
 * overheads), with a heap of outstanding fault completions.
 *
 * Two unloading policies are provided:
 *  - Never (Section 3.2): contexts stay resident while blocked; used
 *    for the cache-fault experiments "to avoid effects due to the
 *    selection of a particular thread unloading policy".
 *  - TwoPhase (Section 3.3): the competitive two-phase algorithm of
 *    Lim & Agarwal — "a context is unloaded when the cost of
 *    repeated, unsuccessful attempts to continue execution equals
 *    the cost of unloading and blocking the context". Unsuccessful
 *    resume attempts (the scheduler polling a still-blocked
 *    context) only consume processor cycles while nothing else is
 *    runnable, so each blocked resident context accrues its
 *    round-robin share of the processor's spin time; when a
 *    context's accrual reaches its unload + block cost, it is
 *    unloaded, freeing registers for queued threads. While other
 *    contexts keep the processor busy, blocked contexts accrue
 *    nothing and stay resident — waiting costs nothing then.
 *
 * The load/unload cost is based on C, the number of registers the
 * thread actually uses (Section 2.5), for BOTH architectures — the
 * paper's deliberately conservative choice in favour of the fixed
 * baseline.
 */

#ifndef RR_MULTITHREAD_MT_PROCESSOR_HH
#define RR_MULTITHREAD_MT_PROCESSOR_HH

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "ckpt/snapshot.hh"
#include "multithread/context_policy.hh"
#include "multithread/event_core.hh"
#include "multithread/fault_model.hh"
#include "multithread/thread.hh"
#include "runtime/context_ring.hh"
#include "runtime/cost_model.hh"
#include "trace/audit.hh"
#include "trace/tracer.hh"

namespace rr::mt {

/** Which register-file architecture to simulate. */
enum class ArchKind : uint8_t
{
    Flexible, ///< register relocation (the paper's mechanism)
    FixedHw,  ///< conventional fixed-size hardware contexts
    AddReloc, ///< Am29000-style exact-size contexts (Section 4)
};

/** @return printable architecture name. */
const char *archName(ArchKind kind);

/** Thread unloading policy. */
enum class UnloadPolicyKind : uint8_t
{
    Never,    ///< blocked contexts stay resident (Section 3.2)
    TwoPhase, ///< competitive two-phase unloading (Section 3.3)
};

/** The synthetic thread supply (Section 3.1). */
struct WorkloadSpec
{
    unsigned numThreads = 64;

    /** Total useful cycles per thread. */
    std::shared_ptr<Distribution> workDist;

    /** Registers required per thread (C). */
    std::shared_ptr<Distribution> regsDist;

    /**
     * Optional priority per thread (0 = highest); null = all
     * threads share one class. Values are clamped to the
     * configuration's priority level count.
     */
    std::shared_ptr<Distribution> priorityDist;
};

/** Full configuration of one simulation. */
struct MtConfig
{
    WorkloadSpec workload;

    /** Stochastic fault process (shared, stateless). */
    std::shared_ptr<const FaultModel> faultModel;

    /** Figure 4 cycle costs. */
    runtime::CostModel costs;

    ArchKind arch = ArchKind::Flexible;

    /**
     * Optional policy override: when set, it is used instead of the
     * policy implied by `arch` (extensions such as the Section 5.1
     * software-only scheme plug in here).
     */
    std::function<std::unique_ptr<ContextPolicy>()> customPolicy;

    unsigned numRegs = 128;        ///< F
    unsigned operandWidth = 5;     ///< w (max context size 2^w)
    unsigned minContextSize = 4;   ///< smallest flexible context
    unsigned fixedContextRegs = 32; ///< hardware context size

    UnloadPolicyKind unloadPolicy = UnloadPolicyKind::Never;

    /**
     * Upper bound on simultaneously resident contexts; 0 = no cap.
     * Used by the Section 5.2 adaptive-residency extension to trade
     * multithreading against cache interference.
     */
    unsigned residencyCap = 0;

    uint64_t seed = 12345;

    /** Scheduler priority levels (Section 2.2 thread classes). */
    unsigned priorityLevels = 1;

    /**
     * Optional structured-event sink (not owned). Every charged
     * cycle is emitted as a typed trace::TraceEvent; null (the
     * default) reduces each emission site to one branch.
     */
    trace::TraceSink *traceSink = nullptr;

    /** Central measurement window (transient exclusion). */
    double statsLoFrac = 0.2;
    double statsHiFrac = 0.8;
};

/** Results of one simulation. */
struct MtStats
{
    // Cycle accounting; the categories partition totalCycles.
    uint64_t totalCycles = 0;
    uint64_t usefulCycles = 0;
    uint64_t idleCycles = 0;
    uint64_t switchCycles = 0;
    uint64_t allocCycles = 0;
    uint64_t deallocCycles = 0;
    uint64_t loadCycles = 0;
    uint64_t unloadCycles = 0;
    uint64_t queueCycles = 0;

    // Event counts.
    uint64_t faults = 0;
    uint64_t cacheFaults = 0;
    uint64_t syncFaults = 0;
    uint64_t loads = 0;
    uint64_t unloads = 0;
    uint64_t allocSuccesses = 0;
    uint64_t allocFailures = 0;

    // Derived measures.
    double efficiencyCentral = 0.0; ///< useful rate, central window
    double efficiencyTotal = 0.0;   ///< useful rate, whole run
    double avgResidentContexts = 0.0; ///< time-weighted mean residency
    unsigned maxResidentContexts = 0;
    unsigned threadsFinished = 0;

    /** Sum of all overhead + useful + idle buckets (= totalCycles). */
    uint64_t accountedCycles() const;
};

/**
 * The reconciliation targets a simulation's trace must conserve
 * against (feed to trace::TraceAuditor::reconcile()).
 */
trace::AuditTotals auditTotals(const MtStats &stats);

/**
 * A simulation that cannot make progress: nothing is runnable, no
 * event is pending, and threads remain unfinished (for example, a
 * thread needs more registers than any context holds). Thrown rather
 * than exiting, so a long-lived caller such as rrserve survives it.
 */
class SimulationError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Single-node multithreaded processor simulator. */
class MtProcessor : public ckpt::Restorable
{
  public:
    explicit MtProcessor(MtConfig config);

    /**
     * Run the workload to completion and return the statistics.
     * Throws SimulationError when the simulation deadlocks.
     */
    MtStats run();

    // ---- stepwise execution (run() = begin + step* + finish) -------

    /**
     * Create threads and perform the initial refill — everything up
     * to the first event-loop iteration. Idempotent via run(); call
     * directly only when driving step() by hand.
     */
    void begin();

    /**
     * Execute one event-loop iteration: drain due completions, then
     * run the next context or idle/evict. Every boundary between
     * step() calls is a valid snapshot point.
     */
    void step();

    /** @return true when every thread has finished. */
    bool done() const
    {
        return finished_ >= config_.workload.numThreads;
    }

    /** Finalize derived statistics and flush the tracer. */
    MtStats finish();

    /** Event-loop iterations executed so far. */
    uint64_t eventIndex() const { return eventIndex_; }

    // ---- checkpointing (rr.ckpt.v1, kind "mt") ---------------------

    /**
     * Configuration fingerprint for cross-spec restore detection:
     * covers the workload, fault model, cost model, architecture and
     * geometry, policies, seed, and measurement window — everything
     * that determines the simulation's future, and nothing that does
     * not (sinks, checkpoint settings).
     */
    std::string fingerprint() const;

    /** Complete simulation state as a sealed rr.ckpt.v1 document. */
    std::vector<uint8_t> snapshot() const;

    /**
     * Restore from a sealed document produced by snapshot() under a
     * matching configuration. Throws ckpt::Error on version, kind,
     * or fingerprint mismatch and on any malformed section.
     */
    void restore(const std::vector<uint8_t> &document);

    void saveState(ckpt::Writer &writer) const override;
    void restoreState(const ckpt::Reader &reader) override;

    /** Thread table after run() (per-thread statistics). */
    const std::vector<Thread> &threads() const { return threads_; }

    /** The configuration in use. */
    const MtConfig &config() const { return config_; }

    /**
     * The completion-event core (heap statistics survive run(); used
     * by tests and the perf benchmarks to assert bounded growth).
     */
    const EventCore &completionCore() const { return completions_; }

  private:
    /** Sentinel for rrmIndex_ slots with no resident thread. */
    static constexpr unsigned kNoThread = ~0u;

    void createThreads();
    std::unique_ptr<ContextPolicy> makePolicy() const;

    /** Event template stamped with the architecture and current time. */
    trace::TraceEvent traceEvent(trace::EventKind kind,
                                 uint64_t cycles) const;

    /** Charge @p cycles of overhead to @p bucket and advance time. */
    void charge(uint64_t cycles, uint64_t &bucket);

    /** Track the time-weighted resident-context integral. */
    void noteResidencyChange(int delta);

    /** Wake fault completions due at or before now. */
    void processCompletions();

    /** The two-phase waiting budget for thread @p t (cycles). */
    uint64_t twoPhaseBudget(const Thread &t) const;

    /** Unload blocked, loaded thread @p tid (two-phase second phase). */
    void evict(unsigned tid);

    /**
     * Advance through an interval with nothing runnable: spin-poll
     * time accrues against blocked resident contexts (two-phase) and
     * may trigger an eviction; otherwise idle until the next fault
     * completion.
     */
    void idleOrEvict();

    /** Load threads from the queue head while allocation succeeds. */
    void refill();

    /** Run the current ring context until its next fault or finish. */
    void runNext();

    /** Earliest pending fault completion; false when none. */
    bool nextCompletionTime(uint64_t &out);

    /** Resident-context index: rrm -> thread id (kNoThread = free). */
    unsigned rrmLookup(uint32_t rrm) const;
    void rrmInsert(uint32_t rrm, unsigned tid);
    void rrmErase(uint32_t rrm);

    /** BlockedLoaded set: O(1) insert and swap-remove by thread id. */
    void blockedInsert(unsigned tid);
    void blockedErase(unsigned tid);

    /**
     * Derive the per-run constants of the thread table: the smallest
     * nonzero policy requiredSpace() over all threads, and each
     * thread's two-phase budget.
     */
    void deriveThreadConstants();

    MtConfig config_;
    std::unique_ptr<ContextPolicy> policy_;
    std::vector<Thread> threads_;
    trace::Tracer tracer_;

    uint64_t now_ = 0;
    uint64_t useful_ = 0;
    unsigned finished_ = 0;
    bool begun_ = false;
    uint64_t eventIndex_ = 0;

    // Zero-allocation steady state: the rrm index is a flat array
    // over register numbers, the software thread queue a reserved
    // vector, the BlockedLoaded list and its position index reserved
    // vectors over thread ids, and the completion heap an EventCore
    // — all sized up front in createThreads() and restoreState(), so
    // the event loop never allocates (the ring's rrm-indexed links
    // grow only until the largest rrm has been inserted once). The
    // BlockedLoaded list is unordered, so idleOrEvict() breaks ties
    // on the lowest tid explicitly; the published figures depend on
    // that victim. minRequired_ and budgets_ are fixed per run
    // because requiredSpace() and twoPhaseBudget() are pure functions
    // of a thread's register count; refill() returns at once while
    // fewer registers are free, and idleOrEvict() reads each blocked
    // thread's budget instead of recomputing it.
    runtime::PriorityRing ring_{1};
    std::vector<unsigned> rrmIndex_;
    std::vector<unsigned> threadQueue_;
    std::vector<unsigned> blockedLoaded_;
    std::vector<unsigned> blockedPos_; ///< tid -> index in blockedLoaded_
    unsigned minRequired_ = 0;
    std::vector<uint64_t> budgets_; ///< tid -> twoPhaseBudget()

    EventCore completions_;

    IntervalRecorder recorder_;
    MtStats stats_;

    unsigned residentCount_ = 0;
    uint64_t lastResidencyTime_ = 0;
    double residencyIntegral_ = 0.0;
};

/** Convenience: construct, run, and return the statistics. */
MtStats simulate(MtConfig config);

} // namespace rr::mt

#endif // RR_MULTITHREAD_MT_PROCESSOR_HH
