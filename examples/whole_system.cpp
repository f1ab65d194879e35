/**
 * @file
 * The whole system in one run: the two-phase slot scheduler — every
 * mechanism of the paper executing as RRISC instructions — with an
 * annotated trace of one thread surrendering its slot to a queued
 * thread.
 *
 * Watch for, in order:
 *   1. `fault 0` — a segment ends with a long-latency event;
 *   2. the Figure 3 yield (ldrrm / mov / mov / jmp) passing the
 *      processor around the slot ring;
 *   3. the poll (`ld r5, 5(r4)` + `bne`) failing BUDGET times;
 *   4. the swap: state saved to the save area, the ready queue
 *      popped, and the new thread resumed with `jmp r0` — all inside
 *      8-register contexts.
 */

#include <cstdio>
#include <string>

#include "assembler/assembler.hh"
#include "base/table.hh"
#include "kernel/twophase_kernel.hh"
#include "runtime/asm_routines.hh"

int
main()
{
    using namespace rr;

    std::printf("The complete software multithreading system, "
                "running as code\n\n");

    // Show the interesting part of the program first.
    const auto prog =
        assembler::assemble(runtime::twoPhaseSchedulerSource(6, 2));
    if (!prog.ok())
        return 1;
    std::printf("The two-phase swap path, as assembled (swap_out .. "
                "swap_in):\n");
    for (uint32_t a = prog.addressOf("swap_out");
         a < prog.addressOf("thread_done"); ++a) {
        std::printf("  %3u: %s\n", a,
                    isa::disassemble(prog.words[a - prog.base])
                        .c_str());
    }
    std::printf("\n");

    // Run a small configuration with long faults and trace around
    // the first swap.
    kernel::TwoPhaseConfig config;
    config.numThreads = 6;
    config.numSlots = 2;
    config.segmentsPerThread = 4;
    config.workUnits = 6;
    config.pollBudget = 2;
    config.latency = makeConstant(500);
    kernel::TwoPhaseKernel kernel(config);

    const uint32_t swap_out = prog.addressOf("swap_out");
    bool tracing = false;
    unsigned printed = 0;
    kernel.setTraceObserver(
        [&](const machine::TraceEntry &entry) {
            if (entry.pc == swap_out && printed == 0)
                tracing = true;
            if (tracing && printed < 26) {
                std::printf("  %5lu  rrm=0x%02x  %3u: %s\n",
                            static_cast<unsigned long>(entry.cycle),
                            entry.rrm, entry.pc,
                            isa::disassemble(entry.inst).c_str());
                ++printed;
            }
        });

    std::printf("Trace of the first slot surrender (cycle / slot "
                "RRM / pc / instruction):\n");
    const kernel::TwoPhaseResult result = kernel.run();

    std::printf("\nRun summary:\n");
    Table table({"metric", "value"});
    table.addRow({"threads / slots", "6 / 2"});
    table.addRow({"halted cleanly", result.halted ? "yes" : "no"});
    table.addRow({"work units", Table::num(result.workUnits)});
    table.addRow({"faults", Table::num(result.faults)});
    table.addRow({"slot surrenders", Table::num(result.swapOuts)});
    table.addRow({"thread (re)loads", Table::num(result.dequeues)});
    table.addRow({"total cycles", Table::num(result.totalCycles)});
    table.addRow({"efficiency", Table::num(result.efficiency())});
    std::printf("%s\n", table.render().c_str());
    std::printf("Everything above — allocation-free slot reuse, "
                "Figure 3 switching,\ncompetitive polling, save/"
                "restore, queueing — executed as RRISC\ninstructions "
                "inside 8-register relocated contexts.\n");
    return 0;
}
