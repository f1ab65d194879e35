/**
 * @file
 * Section 5.3 extension: multiple active contexts.
 *
 * With more than one RRM bank, the high-order bit(s) of each register
 * operand select which mask relocates the remaining offset bits,
 * enabling inter-context operations such as
 * ADD C0.R3, C0.R4, C1.R6 — and, with a suitable mask schedule,
 * emulation of fixed-size overlapping register windows.
 *
 * The relocation hardware itself lives in machine::RelocationUnit
 * (Geometry::banks > 1); this header provides the software conventions:
 * operand encoding helpers and a register-window emulator that
 * computes the per-window mask pairs.
 */

#ifndef RR_EXT_MULTI_RRM_HH
#define RR_EXT_MULTI_RRM_HH

#include <cstdint>

#include "machine/cpu.hh"

namespace rr::ext {

/**
 * Encode a dual-context register operand: bank 0 or 1 in the top
 * operand bit, @p reg in the remaining bits.
 *
 * @param bank           which RRM relocates this operand (0 or 1)
 * @param reg            offset within that context
 * @param operand_width  the machine's operand width w
 */
unsigned dualContextOperand(unsigned bank, unsigned reg,
                            unsigned operand_width);

/**
 * Emulates SPARC-style fixed-size overlapping register windows on the
 * dual-RRM hardware (the paper notes the mechanism "is sufficiently
 * powerful to emulate fixed-size, overlapping register windows").
 *
 * Windows have @p window_size registers and consecutive windows
 * overlap by @p overlap registers: window k starts at physical
 * register k * (window_size - overlap). Bank 0 is pointed at the
 * current window and bank 1 at the next, so the overlapping "out"
 * registers of the current window are the "in" registers of the
 * next.
 */
class RegisterWindowEmulator
{
  public:
    /**
     * @param cpu          machine with at least two RRM banks
     * @param window_size  registers per window (power of two)
     * @param overlap      registers shared between adjacent windows
     */
    RegisterWindowEmulator(machine::Cpu &cpu, unsigned window_size,
                           unsigned overlap);

    /** Number of windows that fit in the register file. */
    unsigned numWindows() const { return numWindows_; }

    /** Current window index. */
    unsigned currentWindow() const { return current_; }

    /** Physical base register of window @p index. */
    unsigned windowBase(unsigned index) const;

    /**
     * Install masks for window @p index: bank 0 = this window,
     * bank 1 = the next (for outgoing arguments).
     */
    void selectWindow(unsigned index);

    /** selectWindow(current + 1): procedure call. */
    void push();

    /** selectWindow(current - 1): procedure return. */
    void pop();

  private:
    machine::Cpu &cpu_;
    unsigned windowSize_;
    unsigned stride_;
    unsigned numWindows_;
    unsigned current_ = 0;
};

} // namespace rr::ext

#endif // RR_EXT_MULTI_RRM_HH
