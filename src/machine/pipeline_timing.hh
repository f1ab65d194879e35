/**
 * @file
 * Optional pipeline timing for the RRISC machine.
 *
 * The base machine is an ideal 1-CPI RISC. Real coarse-multithreaded
 * pipelines pay for control transfers — the paper notes that "a
 * context switch typically bubbles the processor pipeline" and cites
 * APRIL's measured 11-cycle switch against the 4-6 cycle ideal of
 * Figure 3. This model adds classic 5-stage in-order hazards on top
 * of the functional machine:
 *
 *  - taken-branch / jump redirection: the fetch stages behind a
 *    taken control transfer are flushed (default 2 bubbles);
 *  - load-use: an instruction reading the destination of the
 *    immediately preceding load stalls one cycle;
 *  - LDRRM decode dependency: architectures without relocation
 *    delay slots would need to stall decode until the new mask is
 *    visible (default 0 — the delay-slot design exists precisely to
 *    avoid this).
 *
 * All penalties default to zero, so existing configurations are
 * exact 1 CPI unless timing is requested.
 */

#ifndef RR_MACHINE_PIPELINE_TIMING_HH
#define RR_MACHINE_PIPELINE_TIMING_HH

#include <cstdint>

namespace rr::machine {

/** Per-hazard penalty configuration (cycles). */
struct PipelineTimingConfig
{
    unsigned takenBranchPenalty = 0; ///< bubbles after redirection
    unsigned loadUsePenalty = 0;     ///< stall on load-use hazard
    unsigned ldrrmPenalty = 0;       ///< extra decode stall per LDRRM

    /** @return true when any penalty is configured. */
    bool
    enabled() const
    {
        return takenBranchPenalty != 0 || loadUsePenalty != 0 ||
               ldrrmPenalty != 0;
    }

    /** Classic 5-stage settings: 2-cycle redirect, 1-cycle load-use. */
    static PipelineTimingConfig classicFiveStage();
};

/**
 * Stall-cycle accounting. Charges are per retired instruction and
 * independent of how the Cpu dispatched it: the superblock engine
 * charges each instruction exactly as the per-step path does, so
 * stats compare equal with predecode on and off (the identity tests
 * rely on operator==).
 */
struct PipelineTimingStats
{
    uint64_t branchStalls = 0;  ///< cycles lost to redirections
    uint64_t loadUseStalls = 0; ///< cycles lost to load-use hazards
    uint64_t ldrrmStalls = 0;   ///< cycles lost to LDRRM decode

    uint64_t
    total() const
    {
        return branchStalls + loadUseStalls + ldrrmStalls;
    }

    bool operator==(const PipelineTimingStats &other) const = default;
};

} // namespace rr::machine

#endif // RR_MACHINE_PIPELINE_TIMING_HH
