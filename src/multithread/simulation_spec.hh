/**
 * @file
 * SimulationSpec: the validated entry point for configuring one
 * multithreaded-node simulation (rr::mt).
 *
 * MtConfig grew organically — a workload struct, a shared fault
 * model, a cost table, and a dozen loose knobs — and every harness
 * (rrsim, rrbench, the figure benches, the tests) assembled it by
 * hand, each with its own copy of the paper's defaults. SimulationSpec
 * unifies that: one fluent builder that
 *
 *  - owns the paper's experimental defaults (64-thread supply,
 *    C ~ U[6, 24], work scaled to the mean run length, Figure 4
 *    costs keyed to the architecture, the switch cost and unload
 *    policy conventional for each fault process);
 *  - validates the combination *before* the simulator runs, throwing
 *    SpecError with a message that names the offending setting and
 *    its limit (a mis-sized register demand fails in microseconds
 *    with "demand 6..80 exceeds the largest context", not minutes
 *    later with a simulator deadlock error);
 *  - produces a plain MtConfig via build(), so everything downstream
 *    (MtProcessor, the sweep engine, the tests) is unchanged.
 *
 * Every harness and test configures the simulator through this
 * builder (the former fig5Config/fig6Config-style helpers are gone):
 *
 *   MtStats stats = SimulationSpec()
 *                       .cacheFaults(mean_run, 60)
 *                       .arch(ArchKind::Flexible)
 *                       .numRegs(128)
 *                       .seed(7)
 *                       .run();
 */

#ifndef RR_MULTITHREAD_SIMULATION_SPEC_HH
#define RR_MULTITHREAD_SIMULATION_SPEC_HH

#include <optional>
#include <stdexcept>
#include <string>

#include "multithread/mt_processor.hh"
#include "multithread/workload.hh"

namespace rr::mt {

/**
 * Largest run length or latency, in cycles, a spec accepts. Finite so
 * a double narrows to uint64_t without overflow and so 4096 threads x
 * ~250 faults x (run + latency) stays far below 2^64.
 */
inline constexpr double kMaxCycles = 4294967296.0; // 2^32

/** An invalid simulation specification (message names the setting). */
class SpecError : public std::runtime_error
{
  public:
    explicit SpecError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Fluent, validated builder for one simulation's MtConfig. */
class SimulationSpec
{
  public:
    SimulationSpec() = default;

    // ----- thread supply (defaults: the paper's standard workload)

    /** Thread count (default 64, defaultThreadCount). */
    SimulationSpec &threads(unsigned count);

    /**
     * Useful cycles per thread. Default: scaled to the fault
     * process's mean run length (defaultWorkPerThread), so every
     * run observes many faults per thread.
     */
    SimulationSpec &workPerThread(uint64_t cycles);

    /** Register demand C ~ U[lo, hi] (default 6..24, Section 3.1). */
    SimulationSpec &registerDemand(unsigned lo, unsigned hi);

    /** Homogeneous register demand: every thread uses C (Sec. 3.4). */
    SimulationSpec &registerDemand(unsigned c);

    /** Scheduler priority classes and the per-thread level draw. */
    SimulationSpec &priorities(unsigned levels,
                               std::shared_ptr<Distribution> dist);

    // ----- fault process (exactly one; sets the conventional switch
    //       cost and unload policy for that experiment family)

    /** Cache faults (Figure 5): S = 6, contexts never unloaded. */
    SimulationSpec &cacheFaults(double mean_run, uint64_t latency);

    /** Synchronization faults (Figure 6): S = 8, two-phase unload. */
    SimulationSpec &syncFaults(double mean_run, double mean_latency);

    /** Combined cache + synchronization faults (Section 3). */
    SimulationSpec &combinedFaults(double cache_run,
                                   uint64_t cache_latency,
                                   double sync_run,
                                   double sync_latency);

    /** Deterministic run/latency (the Section 3.4 analytic setting). */
    SimulationSpec &deterministicFaults(uint64_t run, uint64_t latency);

    /**
     * Custom fault process. @p mean_run scales the default work per
     * thread; conventional defaults fall back to the cache-fault
     * family (S = 6, never unload).
     */
    SimulationSpec &faultModel(std::shared_ptr<const FaultModel> model,
                               double mean_run);

    // ----- architecture

    /** Register-file architecture (default Flexible). */
    SimulationSpec &arch(ArchKind kind);

    /** Register file size F (default 128). */
    SimulationSpec &numRegs(unsigned f);

    /** Operand width w; the largest context holds 2^w regs (def. 5). */
    SimulationSpec &operandWidth(unsigned w);

    /** Smallest flexible context (default 4). */
    SimulationSpec &minContextSize(unsigned regs);

    /** Hardware context size for ArchKind::FixedHw (default 32). */
    SimulationSpec &fixedContextRegs(unsigned regs);

    /** Policy override (Section 5 extensions plug in here). */
    SimulationSpec &
    customPolicy(std::function<std::unique_ptr<ContextPolicy>()> make);

    // ----- costs

    /**
     * Context switch cost S; the Figure 4 column for the chosen
     * architecture is derived from it at build time. Overrides the
     * fault family's conventional S.
     */
    SimulationSpec &switchCost(uint64_t s);

    /** Explicit cost table (overrides the derived Figure 4 column). */
    SimulationSpec &costs(const runtime::CostModel &model);

    // ----- unload policy

    /** Blocked contexts stay resident (Section 3.2). */
    SimulationSpec &neverUnload();

    /** Competitive two-phase unloading (Section 3.3). */
    SimulationSpec &twoPhaseUnload();

    /** Residency cap (Section 5.2 adaptive extension); 0 = none. */
    SimulationSpec &residencyCap(unsigned cap);

    // ----- run control

    /** Workload RNG seed (default 1). */
    SimulationSpec &seed(uint64_t value);

    /** Central measurement window as run fractions (default .2/.8). */
    SimulationSpec &statsWindow(double lo, double hi);

    /** Structured-event sink for the run (not owned; default none). */
    SimulationSpec &traceSink(trace::TraceSink *sink);

    /**
     * Validate and assemble the MtConfig.
     * @throws SpecError naming the first invalid setting.
     */
    MtConfig build() const;

    /** build() + simulate(). */
    MtStats run() const;

  private:
    /** Experiment family implied by the chosen fault process. */
    enum class FaultFamily : uint8_t
    {
        None,
        Cache,
        Sync,
        Combined,
        Deterministic,
        Custom,
    };

    [[noreturn]] static void fail(const std::string &what);

    /** Reject a mean run length outside [1, kMaxCycles]. */
    static void checkRun(const char *family, double mean_run);

    /** Reject a latency above kMaxCycles. */
    static void checkLatency(const char *family, double latency);

    // Thread supply.
    unsigned threads_ = defaultThreadCount;
    std::optional<uint64_t> workPerThread_;
    unsigned regsLo_ = 6;
    unsigned regsHi_ = 24;
    unsigned priorityLevels_ = 1;
    std::shared_ptr<Distribution> priorityDist_;

    // Fault process.
    FaultFamily family_ = FaultFamily::None;
    std::shared_ptr<const FaultModel> faultModel_;
    double meanRun_ = 0.0;

    // Architecture.
    ArchKind arch_ = ArchKind::Flexible;
    unsigned numRegs_ = 128;
    unsigned operandWidth_ = 5;
    unsigned minContextSize_ = 4;
    unsigned fixedContextRegs_ = 32;
    std::function<std::unique_ptr<ContextPolicy>()> customPolicy_;

    // Costs and policy.
    std::optional<uint64_t> switchCost_;
    std::optional<runtime::CostModel> costs_;
    std::optional<UnloadPolicyKind> unloadPolicy_;
    unsigned residencyCap_ = 0;

    // Run control.
    uint64_t seed_ = 1;
    double statsLoFrac_ = 0.2;
    double statsHiFrac_ = 0.8;
    trace::TraceSink *traceSink_ = nullptr;
};

} // namespace rr::mt

#endif // RR_MULTITHREAD_SIMULATION_SPEC_HH
