/**
 * @file
 * Control-flow graph construction over an assembled RRISC image.
 *
 * This is the backbone of the Section 2.4 static checking tool: the
 * flat boundary rule looks at each instruction in isolation, whereas
 * the dataflow analyses (liveness, RRM tracking) need basic blocks
 * with explicit successor edges.
 *
 * Block leaders are: the image base, every label, every direct
 * branch/jump target, and the instruction following any control
 * transfer. Direct targets come from B-format branches (PC-relative)
 * and JAL; JALR and JMP are indirect — their targets are unknown to
 * the CFG, so the block is marked `indirectExit` and gets no successor
 * edges (the RRM analysis seeds every CFG root conservatively, so
 * code reachable only through indirect jumps is still analysed).
 *
 * Words that do not decode (data in the image) terminate the current
 * block and never join one.
 */

#ifndef RR_LINT_CFG_HH
#define RR_LINT_CFG_HH

#include <cstdint>
#include <vector>

#include "assembler/assembler.hh"
#include "isa/instruction.hh"

namespace rr::lint {

/** One decoded instruction plus its provenance. */
struct CfgInstruction
{
    uint32_t address = 0;  ///< word address
    int line = 0;          ///< 1-based source line (0 when unknown)
    uint32_t word = 0;     ///< raw encoding
    bool valid = false;    ///< decoded successfully
    isa::Instruction inst; ///< decoded form (valid only when `valid`)
};

/** Control-transfer classification of an instruction. */
enum class Transfer : uint8_t
{
    None,        ///< falls through
    Branch,      ///< conditional, direct target + fallthrough
    Jump,        ///< unconditional, direct target (JAL, b pseudo)
    Indirect,    ///< JALR / JMP: target unknown
    Halt,        ///< HALT: no successor
};

/** Classify @p inst (BEQ r0,r0 counts as an unconditional Jump). */
Transfer transferKind(const isa::Instruction &inst);

/** @return true when @p inst redirects control flow. */
bool isControlTransfer(const isa::Instruction &inst);

/** A maximal straight-line run of decodable instructions. */
struct BasicBlock
{
    uint32_t id = 0;       ///< index into Cfg::blocks()
    uint32_t begin = 0;    ///< first word address (inclusive)
    uint32_t end = 0;      ///< one past the last word address

    std::vector<uint32_t> succs; ///< successor block ids
    std::vector<uint32_t> preds; ///< predecessor block ids

    bool indirectExit = false; ///< ends in JALR/JMP (unknown target)

    uint32_t size() const { return end - begin; }
};

/** The control-flow graph of one assembled program. */
class Cfg
{
  public:
    /** Build the CFG of @p program. */
    explicit Cfg(const assembler::Program &program);

    const assembler::Program &program() const { return program_; }

    const std::vector<BasicBlock> &blocks() const { return blocks_; }

    /** All decoded (and undecodable) words, indexed by addr - base. */
    const std::vector<CfgInstruction> &instructions() const
    {
        return instructions_;
    }

    /** @return true when @p addr names a word of the image. */
    bool contains(uint32_t addr) const
    {
        return program_.contains(addr);
    }

    /** Instruction at @p addr; panics when outside the image. */
    const CfgInstruction &at(uint32_t addr) const;

    /**
     * Id of the block containing @p addr, or `noBlock` when the word
     * is data or outside the image.
     */
    static constexpr uint32_t noBlock = ~uint32_t{0};
    uint32_t blockAt(uint32_t addr) const;

    /**
     * Entry block: the 'entry' label when defined, else the image
     * base; `noBlock` for an empty image.
     */
    uint32_t entryBlock() const { return entry_; }

    /**
     * Roots: the entry block plus every block without predecessors
     * (reachable only via labels or indirect jumps). Analyses seed
     * their work lists from here so no code goes unexamined.
     */
    std::vector<uint32_t> roots() const;

    /**
     * Direct target address of the control transfer ending the block,
     * when it has one (Branch/Jump with a decoded PC-relative
     * offset).
     * @return true and sets @p target on success.
     */
    bool directTarget(const CfgInstruction &ci, uint32_t &target) const;

  private:
    void decodeAll();
    void findLeaders(std::vector<bool> &leader) const;
    void buildBlocks(const std::vector<bool> &leader);
    void linkEdges();

    const assembler::Program &program_;
    std::vector<CfgInstruction> instructions_;
    std::vector<BasicBlock> blocks_;
    std::vector<uint32_t> blockIndex_; ///< addr - base -> block id
    uint32_t entry_ = noBlock;
};

} // namespace rr::lint

#endif // RR_LINT_CFG_HH
