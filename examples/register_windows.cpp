/**
 * @file
 * The Section 5.3 extension in action: two active relocation masks.
 *
 * Part 1 — inter-context operations: with the high operand bit
 * selecting between two RRMs, a single instruction can combine
 * values from two different thread contexts
 * (ADD C0.R3, C0.R4, C1.R6), the compilation target the paper
 * suggests for frame-sharing thread languages like TAM.
 *
 * Part 2 — register-window emulation: bank 0 tracks the current
 * procedure's window and bank 1 the callee window, so outgoing
 * arguments are written through bank 1 and procedure call/return is
 * just a pair of mask loads.
 */

#include <cstdio>

#include "ext/multi_rrm.hh"
#include "isa/instruction.hh"
#include "machine/cpu.hh"

int
main()
{
    using namespace rr;

    machine::CpuConfig config;
    // The top operand bit selects among 2 banks.
    config.geometry = {.numRegs = 128, .operandWidth = 6, .banks = 2};
    config.memWords = 4096;

    // ---- Part 1: inter-context add. --------------------------------
    {
        machine::Cpu cpu(config);
        cpu.setRrmImmediate(0, 0);  // context C0 at base 0
        cpu.setRrmImmediate(64, 1); // context C1 at base 64
        cpu.regs().write(4, 10);      // C0.R4
        cpu.regs().write(64 + 6, 32); // C1.R6

        const auto add = isa::makeR3(
            isa::Opcode::ADD, ext::dualContextOperand(0, 3, 6),
            ext::dualContextOperand(0, 4, 6),
            ext::dualContextOperand(1, 6, 6));
        cpu.mem().write(0, isa::encode(add));
        isa::Instruction halt;
        halt.op = isa::Opcode::HALT;
        cpu.mem().write(1, isa::encode(halt));
        cpu.run(10);

        std::printf("== Inter-context operation (Section 5.3) ==\n");
        std::printf("C0 at base 0, C1 at base 64\n");
        std::printf("add C0.r3, C0.r4, C1.r6  ->  C0.r3 = %u "
                    "(10 + 32), one instruction, one cycle\n\n",
                    cpu.regs().read(3));
    }

    // ---- Part 2: register windows. ---------------------------------
    {
        machine::Cpu cpu(config);
        ext::RegisterWindowEmulator windows(cpu, 32, 8);
        std::printf("== Register-window emulation ==\n");
        std::printf("%u windows of 32 registers; bank 0 = current, "
                    "bank 1 = callee\n",
                    windows.numWindows());

        // Caller computes in its window...
        cpu.writeContextReg(5, 123);
        // ...passes an argument into the callee's r0 through bank 1:
        // addi <bank1:r0>, <bank0:r5>, 1
        const auto pass = isa::makeI(
            isa::Opcode::ADDI, ext::dualContextOperand(1, 0, 6),
            ext::dualContextOperand(0, 5, 6), 1);
        cpu.mem().write(0, isa::encode(pass));
        isa::Instruction halt;
        halt.op = isa::Opcode::HALT;
        cpu.mem().write(1, isa::encode(halt));
        cpu.run(10);

        std::printf("caller (window %u): r5 = %u, writes r5+1 to "
                    "callee's r0 via bank 1\n",
                    windows.currentWindow(), cpu.readContextReg(5));
        windows.push(); // "call"
        std::printf("callee (window %u): sees argument r0 = %u\n",
                    windows.currentWindow(), cpu.readContextReg(0));
        windows.pop(); // "return"
        std::printf("returned to window %u\n",
                    windows.currentWindow());
        std::printf("\nCall/return cost: two LDRRM-class mask loads — "
                    "no register copying,\nno memory traffic, using "
                    "only ceil(lg n)-bit masks (Section 5.3).\n");
    }
    return 0;
}
