/**
 * @file
 * Reproduces Figure 4's cost tables by *measuring* the runtime
 * routines on the cycle-level RRISC machine instead of assuming
 * them:
 *
 *  - the Appendix A allocation/deallocation routines (general-purpose
 *    binary/linear search and the FF1-accelerated variant);
 *  - the Figure 3 context switch;
 *  - the Section 2.5 exact-count context load/unload.
 *
 * Output: measured cycles next to the paper's assumed values.
 */

#include <string>

#include "assembler/assembler.hh"
#include "base/table.hh"
#include "exp/registry.hh"
#include "kernel/memory_system.hh"
#include "machine/cpu.hh"
#include "runtime/asm_routines.hh"

namespace {

using namespace rr;
using assembler::Program;
using machine::Cpu;

machine::CpuConfig
machineConfig()
{
    machine::CpuConfig config;
    config.geometry.operandWidth = 6;
    config.ldrrmDelaySlots = 1;
    config.memWords = 1u << 14;
    return config;
}

struct AllocatorHarness
{
    static constexpr uint64_t allocMapAddr = 0x1000;
    static constexpr uint64_t threadAddr = 0x1010;

    Cpu cpu{machineConfig()};
    Program prog;

    AllocatorHarness()
    {
        const std::string source =
            "entry16:  jal r15, ctx_alloc16\n"
            "          halt\n"
            "entry64:  jal r15, ctx_alloc64\n"
            "          halt\n"
            "entryff1: jal r15, ctx_alloc16_ff1\n"
            "          halt\n"
            "entrydel: jal r15, ctx_dealloc\n"
            "          halt\n" +
            runtime::appendixAAllocatorSource();
        prog = assembler::assemble(source);
        cpu.mem().loadImage(prog.base, prog.words);
        cpu.regs().write(6, 0);
        cpu.regs().write(8, 0x11111111u);
        cpu.regs().write(9, 0x0000ffffu);
        cpu.regs().write(13, 0x0000000fu);
        cpu.regs().write(10, allocMapAddr);
        cpu.regs().write(11, threadAddr);
    }

    /** Run one routine; returns cycles including call + return. */
    uint64_t
    call(const std::string &entry, uint32_t alloc_map)
    {
        cpu.mem().write(allocMapAddr, alloc_map);
        cpu.resume();
        cpu.setPc(prog.addressOf(entry));
        const uint64_t before = cpu.cycles();
        cpu.run(1000);
        return cpu.cycles() - before - 1; // exclude the halt
    }
};

/** Measure unload_k on the Section 2.5 multi-entry-point routine. */
uint64_t
measureUnload(unsigned k)
{
    Cpu cpu(machineConfig());
    const Program prog = assembler::assemble(
        "ret: halt\n" + runtime::saveRestoreSource(30));
    cpu.mem().loadImage(prog.base, prog.words);
    cpu.regs().write(30, 0x3000);
    cpu.regs().write(31, prog.addressOf("ret"));
    cpu.setPc(prog.addressOf("unload_" + std::to_string(k)));
    const uint64_t before = cpu.cycles();
    cpu.run(100);
    return cpu.cycles() - before - 2; // exclude return jmp + halt
}

} // namespace

RR_BENCH_FIGURE(fig4_costs,
                "Figure 4 — operation costs, measured on the "
                "cycle-level RRISC machine")
{
    ctx.text("(measured cycles include the call and return "
             "instructions)");

    AllocatorHarness harness;
    Table table({"operation", "paper (cycles)", "measured (cycles)"});

    table.addRow({"context allocate, succeed (binary search)", "25",
                  Table::num(harness.call("entry16", 0xffffffffu))});
    table.addRow({"context allocate, succeed (high block)", "25",
                  Table::num(harness.call("entry16", 0xf0000000u))});
    table.addRow({"context allocate, fail (fragmented map)", "15",
                  Table::num(harness.call("entry16", 0x55555555u))});
    table.addRow({"context allocate 64, succeed (linear)", "25",
                  Table::num(harness.call("entry64", 0xffffffffu))});
    table.addRow({"context allocate 64, fail", "15",
                  Table::num(harness.call("entry64", 0x0000fff0u))});
    table.addRow({"context allocate with FF1 (footnote 2)", "~15",
                  Table::num(harness.call("entryff1", 0xffffffffu))});

    // Prepare a deallocatable context, then measure dealloc.
    harness.call("entry16", 0xffffffffu);
    const uint32_t map_after = harness.cpu.mem().read(
        AllocatorHarness::allocMapAddr);
    table.addRow({"context deallocate", "5",
                  Table::num(harness.call("entrydel", map_after))});

    const double switch_cost =
        kernel::figure3SwitchCost(machine::PipelineTimingConfig{}, 8000)
            .cycles;
    table.addRow({"context switch (Figure 3)", "4-6 (S=6)",
                  Table::num(switch_cost, 1)});

    for (const unsigned c : {6u, 16u, 24u}) {
        table.addRow({"context unload, C = " + std::to_string(c),
                      std::to_string(c) + " (1/reg)",
                      Table::num(measureUnload(c))});
    }

    ctx.table("costs", "", std::move(table));
    ctx.text("Thread queue insert/remove (10) and the 10-cycle\n"
             "block/unblock overhead are software bookkeeping "
             "charges taken\nas given in both simulated "
             "architectures (Section 3.1).");
}
