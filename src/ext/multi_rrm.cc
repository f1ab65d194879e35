#include "ext/multi_rrm.hh"

#include "base/bitops.hh"
#include "base/logging.hh"

namespace rr::ext {

unsigned
dualContextOperand(unsigned bank, unsigned reg, unsigned operand_width)
{
    rr_assert(bank <= 1, "bank must be 0 or 1");
    rr_assert(operand_width >= 2, "operand width too small for banks");
    const unsigned offset_bits = operand_width - 1;
    rr_assert(reg < (1u << offset_bits), "register ", reg,
              " exceeds the per-bank offset field");
    return (bank << offset_bits) | reg;
}

RegisterWindowEmulator::RegisterWindowEmulator(machine::Cpu &cpu,
                                               unsigned window_size,
                                               unsigned overlap)
    : cpu_(cpu),
      windowSize_(window_size),
      stride_(window_size)
{
    rr_assert(cpu.relocation().numBanks() >= 2,
              "register windows need two RRM banks");
    rr_assert(isPowerOfTwo(window_size), "window size must be a power "
                                         "of two");
    rr_assert(overlap < window_size, "overlap must be smaller than the "
                                     "window");

    // OR relocation requires size-aligned contexts, so the emulated
    // windows are physically disjoint; the SPARC-style "overlap" is
    // realized through bank 1: the caller reaches the callee window's
    // first `overlap` registers (its in-registers) via bank-1
    // operands before pushing. This is exactly the emulation the
    // paper sketches — no registers need to be physically shared.
    const unsigned regs = cpu.config().geometry.numRegs;
    rr_assert(regs >= window_size, "register file smaller than one "
                                   "window");
    numWindows_ = regs / stride_;
    selectWindow(0);
}

unsigned
RegisterWindowEmulator::windowBase(unsigned index) const
{
    rr_assert(index < numWindows_, "window ", index, " out of range");
    return index * stride_;
}

void
RegisterWindowEmulator::selectWindow(unsigned index)
{
    rr_assert(index < numWindows_, "window ", index, " out of range");
    current_ = index;
    cpu_.setRrmImmediate(windowBase(index), 0);
    // Bank 1 exposes the successor window (outgoing arguments); the
    // topmost window has no successor and aliases itself.
    const unsigned next = index + 1 < numWindows_ ? index + 1 : index;
    cpu_.setRrmImmediate(windowBase(next), 1);
}

void
RegisterWindowEmulator::push()
{
    rr_assert(current_ + 1 < numWindows_, "window overflow");
    selectWindow(current_ + 1);
}

void
RegisterWindowEmulator::pop()
{
    rr_assert(current_ > 0, "window underflow");
    selectWindow(current_ - 1);
}

} // namespace rr::ext
