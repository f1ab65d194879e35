/**
 * @file
 * The paper's multithreading system actually *running* on the
 * cycle-level machine — an execution-driven counterpart to the
 * event-driven mt::MtProcessor, used to cross-validate it.
 *
 * Every thread executes real RRISC code sharing one context-relative
 * body: a work loop, a FAULT instruction when the current run
 * segment ends, the Figure 3 yield, and an APRIL-style poll on
 * resumption (a blocked context that regains control tests a
 * completion flag and yields again if its fault is still
 * outstanding). Context switching, scheduling, and polling therefore
 * cost exactly the cycles the real code takes; only fault *timing*
 * (latency scheduling and completion-flag delivery) is played by the
 * C++ harness, standing in for the memory system.
 *
 * Register conventions in the thread body (context-relative):
 *   r0  saved PC (Figure 3)        r6  constant 1
 *   r1  saved PSW                  r7  constant 0
 *   r2  NextRRM                    r8  scratch
 *   r4  remaining segment units    r9  &completion flag
 *   r5  (unused)                   r10 segment-table pointer
 *                                  r11 &live-thread counter
 */

#ifndef RR_KERNEL_MACHINE_MT_KERNEL_HH
#define RR_KERNEL_MACHINE_MT_KERNEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/distributions.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "kernel/memory_system.hh"

namespace rr::kernel {

/** How a raised fault gets serviced. */
enum class FaultService : uint8_t
{
    /** Independent latency drawn from KernelConfig::latency. */
    Latency,

    /**
     * Barrier synchronization: a fault completes only when every
     * still-running thread has raised its fault — run segments are
     * parallel phases separated by barriers, and fast threads wait
     * for slow ones. Wait times are endogenous (caused by workload
     * skew), not drawn from a distribution.
     */
    Barrier,
};

/** Configuration of one machine-level multithreading run. */
struct KernelConfig
{
    machine::Geometry geometry{.operandWidth = 6}; ///< F = 128, w = 6
    unsigned numThreads = 4;     ///< resident thread count

    /**
     * Registers each thread requires (C); contexts are allocated at
     * the power-of-two size covering max(C, 12) since the body uses
     * context-relative r0..r11.
     */
    unsigned regsUsed = 12;

    /**
     * Force every context to this size instead (e.g. 32 to emulate a
     * conventional fixed-context machine); 0 = size from regsUsed.
     */
    unsigned forcedContextSize = 0;

    /** Work units per run segment (one unit = one 2-cycle loop pass). */
    std::shared_ptr<Distribution> segmentUnits;

    /** Fault service discipline. */
    FaultService service = FaultService::Latency;

    /** Fault service latency (cycles); unused in Barrier mode. */
    std::shared_ptr<Distribution> latency;

    /** Run segments each thread executes before finishing. */
    unsigned segmentsPerThread = 32;

    /**
     * Per-thread segment-count override (empty = segmentsPerThread
     * for everyone; otherwise size must equal numThreads). Threads
     * with fewer segments finish early, so in Barrier mode the gang
     * shrinks mid-run — a finishing thread must not strand the
     * threads still blocked at the barrier.
     */
    std::vector<unsigned> segmentsByThread;

    uint64_t seed = 1;

    /** Step cap (safety against runaway programs). */
    uint64_t maxSteps = 50'000'000;

    /**
     * Optional structured-event sink (not owned): fault issue and
     * completion, failed resume polls, and barrier releases are
     * emitted with machine-cycle stamps.
     */
    trace::TraceSink *traceSink = nullptr;
};

/** Results of one run. */
struct KernelResult : KernelRun
{
    uint64_t failedPolls = 0;   ///< resumptions that found the fault
                                ///< still outstanding
    uint64_t barriers = 0;      ///< barrier releases (Barrier mode)
    unsigned residentContexts = 0; ///< contexts that fit the file

    /** usefulCycles / totalCycles over the whole run. */
    double efficiencyTotal = 0.0;

    /** Useful rate over the central 20-80% window. */
    double efficiencyCentral = 0.0;
};

/**
 * Builds the program image, creates the contexts, runs the machine,
 * and extracts statistics.
 */
class MachineMtKernel
{
  public:
    explicit MachineMtKernel(KernelConfig config);

    /** Execute the workload to completion. */
    KernelResult run();

    /** The machine (valid after construction; inspectable after run). */
    machine::Cpu &cpu() { return mem_.cpu(); }

  private:
    void buildProgram();
    void createThreads();
    void onFault();
    void onStep(uint64_t cycle, uint32_t pc);

    KernelConfig config_;
    Rng rng_;
    MemorySystem mem_;

    uint32_t entryAddr_ = 0;
    uint32_t workAddr_ = 0;
    uint32_t pollFailAddr_ = 0;

    // Barrier-mode bookkeeping.
    std::vector<bool> arrived_;
    unsigned arrivalCount_ = 0;

    IntervalRecorder recorder_;
    KernelResult result_;
};

/** Convenience wrapper: construct, run, return. */
KernelResult runMachineKernel(KernelConfig config);

/**
 * The program every MachineMtKernel runs: `entry` (jmp r0), the
 * Figure 3 yield and the shared thread body.
 */
std::string machineMtKernelSource();

} // namespace rr::kernel

#endif // RR_KERNEL_MACHINE_MT_KERNEL_HH
