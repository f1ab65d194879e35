/**
 * @file
 * The physical register file. The paper targets large files (64, 128,
 * or 256 general registers) shared by all resident thread contexts.
 */

#ifndef RR_MACHINE_REGISTER_FILE_HH
#define RR_MACHINE_REGISTER_FILE_HH

#include <cstdint>
#include <vector>

namespace rr::machine {

/** A flat file of 32-bit general registers. */
class RegisterFile
{
  public:
    /** Construct with @p num_regs registers, all zero. */
    explicit RegisterFile(unsigned num_regs);

    /** Number of physical registers. */
    unsigned size() const { return static_cast<unsigned>(regs_.size()); }

    /** Read physical register @p index; panics when out of range. */
    uint32_t read(unsigned index) const;

    /** Write physical register @p index; panics when out of range. */
    void write(unsigned index, uint32_t value);

    /** Reset all registers to zero. */
    void clear();

    /** Copy of the full register state (tests / debugging). */
    std::vector<uint32_t> snapshot() const { return regs_; }

    /**
     * Raw register storage for pre-validated fast paths (the Cpu
     * superblock engine). Indices must come from a relocation table whose
     * entries were range-checked at build time; the pointer stays
     * valid for the file's lifetime (the size is fixed at
     * construction).
     */
    const uint32_t *data() const { return regs_.data(); }
    uint32_t *data() { return regs_.data(); }

  private:
    std::vector<uint32_t> regs_;
};

} // namespace rr::machine

#endif // RR_MACHINE_REGISTER_FILE_HH
