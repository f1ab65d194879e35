/**
 * @file
 * Quickstart: the register relocation mechanism in three acts.
 *
 *  1. Relocate register operands through an RRM (Figure 1).
 *  2. Carve a 128-register file into variable-size contexts with the
 *     software allocator (Appendix A).
 *  3. Simulate a multithreaded node and compare register relocation
 *     against fixed-size hardware contexts (Section 3).
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "base/table.hh"
#include "machine/relocation_unit.hh"
#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"
#include "runtime/context_allocator.hh"

int
main()
{
    using namespace rr;

    // ---- 1. The hardware mechanism: OR-relocation at decode. ------
    std::printf("== 1. Register relocation (Figure 1) ==\n");
    machine::RelocationUnit unit(machine::Geometry{});
    unit.setMask(40); // a size-8 context at registers 40..47
    std::printf("RRM=40 (size-8 context): context-relative r5 -> "
                "absolute r%u\n",
                unit.relocate(5).physical);
    unit.setMask(32); // a size-16 context at registers 32..47
    std::printf("RRM=32 (size-16 context): context-relative r14 -> "
                "absolute r%u\n\n",
                unit.relocate(14).physical);

    // ---- 2. Software context allocation (Appendix A). -------------
    std::printf("== 2. Variable-size context allocation ==\n");
    runtime::ContextAllocator allocator(128, 5);
    for (const unsigned c : {6u, 24u, 12u, 4u, 17u}) {
        const auto context = allocator.allocate(c);
        if (context) {
            std::printf("thread needs %2u regs -> context of %2u at "
                        "base %3u (RRM=0x%02x)\n",
                        c, context->size, context->baseReg(),
                        context->rrm);
        }
    }
    std::printf("registers used: %u / %u\n\n",
                allocator.allocatedRegs(), allocator.numRegs());

    // ---- 3. Flexible vs fixed contexts under cache faults. --------
    std::printf("== 3. Multithreading efficiency (Figure 5 style) ==\n");
    Table table({"R", "L", "fixed", "flexible", "speedup"});
    for (const double run_length : {16.0, 64.0}) {
        for (const uint64_t latency : {100ull, 400ull}) {
            mt::MtConfig fixed =
                mt::SimulationSpec()
                    .cacheFaults(run_length, latency)
                    .arch(mt::ArchKind::FixedHw)
                    .build();
            mt::MtConfig flexible =
                mt::SimulationSpec()
                    .cacheFaults(run_length, latency)
                    .arch(mt::ArchKind::Flexible)
                    .build();
            const double ef =
                mt::simulate(std::move(fixed)).efficiencyCentral;
            const double el =
                mt::simulate(std::move(flexible)).efficiencyCentral;
            table.addRow({Table::num(run_length, 0),
                          Table::num(latency), Table::num(ef),
                          Table::num(el), Table::num(el / ef, 2)});
        }
    }
    std::printf("%s\n(F = 128 registers, C ~ U[6,24], S = 6; "
                "efficiency over the central 20-80%% window)\n",
                table.render().c_str());
    return 0;
}
