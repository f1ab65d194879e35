/**
 * @file
 * The cycle-level RRISC CPU.
 *
 * This models the processor the paper assumes: a single-issue RISC
 * with fixed-field decoding, one instruction per cycle, a special RRM
 * register loaded by LDRRM (with a configurable number of delay
 * slots, Section 2.1), and a processor status word moved by
 * MFPSW/MTPSW (Figure 3). Register relocation happens at decode via
 * the RelocationUnit.
 *
 * The FAULT instruction invokes a user hook so that higher layers can
 * model long-latency events (remote cache misses, synchronization
 * faults) and drive software context switches exactly as the paper's
 * Figure 3 code does.
 */

#ifndef RR_MACHINE_CPU_HH
#define RR_MACHINE_CPU_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/snapshot.hh"
#include "isa/instruction.hh"
#include "machine/memory.hh"
#include "machine/pipeline_timing.hh"
#include "machine/register_file.hh"
#include "machine/relocation_unit.hh"

namespace rr::machine {

/** Why the CPU stopped executing. */
enum class TrapKind : uint8_t
{
    None,             ///< running or halted normally
    InvalidOpcode,    ///< undecodable instruction word
    OperandTooWide,   ///< register operand >= 2^w
    RegOutOfRange,    ///< relocated register >= n
    MemOutOfRange,    ///< data or instruction address out of range
    ContextBounds,    ///< Mux-mode context bounds violation
};

/** @return a printable name for @p kind. */
const char *trapName(TrapKind kind);

/**
 * Default for CpuConfig::predecode: true unless the environment
 * variable RR_CPU_PREDECODE is set to "0". Read once per process, so
 * tests can run the same binary in both modes.
 */
bool defaultPredecode();

/** Static machine configuration. */
struct CpuConfig
{
    /** Physical register file size n (power of two). */
    unsigned numRegs = 128;

    /**
     * Register operand width w: a context may address at most 2^w
     * registers (paper Section 2.1). Must not exceed the 6-bit
     * encoding field.
     */
    unsigned operandWidth = 5;

    /** Delay slots after LDRRM before the new mask takes effect. */
    unsigned ldrrmDelaySlots = 1;

    /** Memory size in words. */
    size_t memWords = 1u << 16;

    /** Decode-stage combining operation. */
    RelocationMode relocationMode = RelocationMode::Or;

    /** RRM bank entries (>1 enables the Section 5.3 extension). */
    unsigned rrmBanks = 1;

    /** Pipeline hazard penalties (all zero = ideal 1 CPI). */
    PipelineTimingConfig timing;

    /**
     * Let run() execute cached superblocks (docs/PERF.md): runs of
     * instructions decoded once, invalidated on stores and host
     * writes, and dispatched descriptor to descriptor. Architectural
     * behaviour (registers, memory, traps, cycles, instret, timing
     * stats, traces) is identical on or off; only wall-clock speed
     * changes. step() is always the decode-per-step reference.
     * Defaults from RR_CPU_PREDECODE.
     */
    bool predecode = defaultPredecode();
};

/** One line of execution trace. */
struct TraceEntry
{
    uint64_t cycle;       ///< cycle at which the instruction executed
    uint32_t pc;          ///< word address of the instruction
    isa::Instruction inst; ///< decoded (pre-relocation) instruction
    uint32_t rrm;          ///< active RRM (bank 0) during decode
};

/** The RRISC processor. */
class Cpu : public ckpt::Restorable
{
  public:
    /** Called when a FAULT instruction executes. */
    using FaultHook = std::function<void(Cpu &, uint32_t fault_class)>;

    /** Called once per executed instruction when tracing is enabled. */
    using TraceHook = std::function<void(const TraceEntry &)>;

    explicit Cpu(const CpuConfig &config);

    // ---- state access ---------------------------------------------------

    const CpuConfig &config() const { return config_; }
    RegisterFile &regs() { return regs_; }
    const RegisterFile &regs() const { return regs_; }
    Memory &mem() { return mem_; }
    const Memory &mem() const { return mem_; }
    RelocationUnit &relocation() { return relocation_; }
    const RelocationUnit &relocation() const { return relocation_; }

    uint32_t pc() const { return pc_; }
    void setPc(uint32_t pc) { pc_ = pc; }

    uint32_t psw() const { return psw_; }
    void setPsw(uint32_t psw) { psw_ = psw; }

    /** Active RRM (bank 0); pending delay-slot loads not included. */
    uint32_t rrm() const { return relocation_.mask(0); }

    /**
     * Set the RRM immediately, bypassing delay slots (used by the
     * runtime when synthesizing initial state, not by simulated code).
     */
    void setRrmImmediate(uint32_t mask, unsigned bank = 0);

    /**
     * Read / write a context-relative register under the *current*
     * RRM — how the runtime layer peeks into the active context.
     * Panics on relocation failure.
     */
    uint32_t readContextReg(unsigned context_reg) const;
    void writeContextReg(unsigned context_reg, uint32_t value);

    // ---- execution ------------------------------------------------------

    /**
     * Execute one instruction, decoded from memory on every call: the
     * reference the superblock engine is checked against.
     * @return false when the CPU is halted or trapped.
     */
    bool step();

    /**
     * Run until HALT, a trap, or @p max_steps instructions: cached
     * superblocks when predecodeActive(), else a step() loop.
     * @return number of instructions executed.
     */
    uint64_t run(uint64_t max_steps);

    bool halted() const { return halted_; }
    TrapKind trap() const { return trap_; }

    /** Clear halt/trap so execution can continue (runtime use). */
    void resume();

    uint64_t cycles() const { return cycles_; }
    uint64_t instructionsRetired() const { return instret_; }

    /** Stall-cycle breakdown (all zero with default timing). */
    const PipelineTimingStats &timingStats() const
    {
        return timingStats_;
    }

    /**
     * Charge @p n extra cycles without executing instructions (models
     * pipeline bubbles and memory stalls imposed by a higher layer).
     */
    void stall(uint64_t n) { cycles_ += n; }

    // ---- hooks ----------------------------------------------------------

    void setFaultHook(FaultHook hook) { faultHook_ = std::move(hook); }
    void setTraceHook(TraceHook hook) { traceHook_ = std::move(hook); }

    /** Class value of the most recent FAULT instruction. */
    uint32_t lastFaultClass() const { return lastFaultClass_; }

    /** Total FAULT instructions executed. */
    uint64_t faultCount() const { return faultCount_; }

    /**
     * True when run() executes superblocks (config requested it and
     * the memory is small enough to shadow).
     */
    bool predecodeActive() const { return predecode_; }

    /**
     * Memories larger than this are not shadowed (the block index and
     * cover map cost 6 bytes per word up to the highest decoded one);
     * such CPUs run() through the decode-per-step reference.
     */
    static constexpr size_t kPredecodeMaxWords = size_t{1} << 22;

    /** Superblocks decoded since construction (diagnostics only). */
    uint64_t superblocksBuilt() const { return sbBuilt_; }

    /**
     * Whole-cache superblock invalidations since construction: SMC
     * hitting covered words, host writes whose re-verification found
     * changed code, checkpoint restores, and capacity resets
     * (diagnostics only — never serialized).
     */
    uint64_t superblockFlushes() const { return sbFlushes_; }

    /**
     * Superblocks kept after a host write touched cached code: the
     * lazy re-verification compared the covered words against the
     * block's build-time snapshot and found them unchanged
     * (diagnostics only — never serialized).
     */
    uint64_t superblocksReverified() const { return sbReverified_; }

    // ---- checkpointing ---------------------------------------------------

    /**
     * Configuration fingerprint for rr.ckpt.v1 meta checking. Covers
     * everything that affects execution (geometry, relocation mode,
     * delay slots, timing penalties) but not the predecode switch,
     * which is behaviour-neutral by construction.
     */
    std::string fingerprint() const;

    /**
     * Save the complete architectural and timing state: registers,
     * memory, relocation masks, PC/PSW/trap, pending LDRRM delay
     * slots, cycle and stall counters, and the cross-step hazard
     * window. The superblock cache is derived state and is never
     * serialized.
     */
    void saveState(ckpt::Writer &writer) const override;

    /**
     * Restore state saved by saveState() into a CPU built with a
     * matching configuration. Throws ckpt::Error on any geometry
     * mismatch. The relocation table cache is re-validated, never
     * trusted (see RelocationUnit::restoreMasks).
     */
    void restoreState(const ckpt::Reader &reader) override;

    /** Rebuild a CpuConfig from a checkpoint's config section. */
    static CpuConfig configFromCheckpoint(const ckpt::Reader &reader);

  private:
    struct TrapSignal
    {
        TrapKind kind;
    };

    /**
     * Most register reads any instruction performs. Audit over
     * isa::FormatInfo: R3 and B read rs1+rs2, ST (Format::I with a
     * source rd) reads rs1+rd, every other format reads at most one
     * register. readOperand asserts this bound instead of silently
     * dropping reads from the load-use hazard window.
     */
    static constexpr unsigned kMaxOperandReads = 2;

    /** Relocate a context-relative operand or raise a trap. */
    unsigned relocateOrTrap(unsigned operand) const;

    uint32_t readOperand(unsigned operand) const;
    void writeOperand(unsigned operand, uint32_t value);

    /** Cold paths kept out of line so operand access inlines. */
    [[noreturn]] static void throwTrap(TrapKind kind);
    void recordOperandRead(unsigned physical) const;

    /**
     * Re-cache the relocation table after a mask/context change.
     * Inline: this sits on the LDRRM retirement path, which context-
     * switch-heavy workloads hit every few instructions.
     */
    void
    refreshRelocTable()
    {
        // The table replaces the per-access RegOutOfRange check; the
        // unit asserts the range invariant once when it builds each
        // table, so refreshing after a mask switch is just two loads.
        relocTable_ = relocation_.table();
        relocEpoch_ = relocation_.epoch();
    }

    /** Execute one decoded instruction (the reference semantics). */
    void execute(const isa::Instruction &inst);

    // ---- threaded superblock dispatch (cpu_dispatch.cc) -----------------

    /**
     * One token-threaded descriptor. @c token selects the handler
     * (opcode tokens mirror isa::Opcode values; the end-of-block
     * sentinel follows). @c inst holds the decoded instruction
     * verbatim, so trace reconstruction and timing charges in
     * careful mode are exact.
     */
    struct MicroOp
    {
        uint16_t token = 0;
        uint32_t pc = 0;
        isa::Instruction inst{};
    };

    /**
     * A decoded run of instructions starting at @c entry and covering
     * @c words memory words. Derived state: decoded straight from
     * memory, invalidated whenever a covered word changes (simulated
     * stores, host writes, restores), and never serialized.
     *
     * @c raw snapshots the covered memory words at build time and
     * @c seenEpoch records the code epoch the block was last verified
     * against: after host writes touch cached code, blocks are
     * re-verified lazily (one word compare per covered word, at next
     * entry) instead of rebuilt — reloading an identical image keeps
     * every block.
     */
    struct SuperBlock
    {
        uint32_t entry = 0;
        uint32_t words = 0;
        uint64_t seenEpoch = 0;
        std::vector<MicroOp> ops;
        std::vector<uint32_t> raw;
    };

    /** Cache capacity; the whole cache is reset when it fills. */
    static constexpr size_t kMaxSuperblocks = 4096;

    /** Longest run of memory words decoded into one superblock. */
    static constexpr uint32_t kMaxBlockWords = 64;

    /**
     * Decode a superblock starting at @p entry (which must be in
     * range) and register it in the block index.
     * @return nullptr when the entry word is undecodable.
     */
    const SuperBlock *buildBlock(uint32_t entry);

    /** Drop every superblock and clear the index/cover maps. */
    void flushBlocks();

    /** Grow the index/cover maps to cover words [0, @p words). */
    void growBlockMaps(uint32_t words);

    /**
     * Invalidate superblocks touched by host writes that arrived
     * through Memory's public API since the last sync (checked via
     * the memory version counter and bounded write journal).
     */
    void syncHostWrites();

    /** run() loop over cached superblocks (predecode_ only). */
    uint64_t runBlocks(uint64_t max_steps);

    /**
     * Execute one superblock for at most @p budget instructions.
     * Careful mode maintains per-instruction trace/timing state;
     * fast mode materializes pc/counters only at exits.
     * @return instructions retired.
     */
    template <bool Careful>
    uint64_t execBlock(const SuperBlock &blk, uint64_t budget);

    /** Shared end-of-step hazard accounting (timing enabled only). */
    void applyTiming(const isa::Instruction &inst, uint32_t pc_before);

    /**
     * Apply/advance the pending LDRRM delay-slot state machine.
     * Inline for the same reason as refreshRelocTable().
     */
    void
    advancePendingRrm()
    {
        if (!rrmPending_)
            return;
        --rrmPendingRemaining_;
        if (rrmPendingRemaining_ == 0) {
            relocation_.setMask(rrmPendingValue_, rrmPendingBank_);
            rrmPending_ = false;
        }
    }

    CpuConfig config_;
    RegisterFile regs_;
    Memory mem_;
    RelocationUnit relocation_;

    // Superblock engine: cached raw pointers (Memory and RegisterFile
    // never reallocate) and the epoch-validated relocation table.
    bool predecode_ = false;
    uint32_t *memData_ = nullptr;
    uint32_t *regsData_ = nullptr;
    uint64_t memWords_ = 0;
    bool timingEnabled_ = false;
    const RelocationResult *relocTable_ = nullptr;
    unsigned relocTableSize_ = 0;
    uint64_t relocEpoch_ = 0;

    // Superblock cache (threaded dispatch). blockIndex_ maps an entry
    // pc to its block (-1 = none); blockCover_ counts, per word, how
    // many blocks decoded that word, so stores can detect in O(1)
    // whether they clobbered cached code. Both span only the words up
    // to the highest one any block decoded (buildBlock grows them);
    // addresses past their end hold no block and no cached code.
    // blocksStale_ defers the actual flush to the next outer-loop
    // iteration.
    std::vector<SuperBlock> blocks_;
    std::vector<int32_t> blockIndex_;
    std::vector<uint16_t> blockCover_;
    bool blocksStale_ = false;
    uint64_t memVersionSeen_ = 0;
    uint64_t codeEpoch_ = 0;
    uint64_t sbBuilt_ = 0;
    uint64_t sbFlushes_ = 0;
    uint64_t sbReverified_ = 0;

    uint32_t pc_ = 0;
    uint32_t psw_ = 0;
    bool halted_ = false;
    TrapKind trap_ = TrapKind::None;

    uint64_t cycles_ = 0;
    uint64_t instret_ = 0;

    // Pending LDRRM (delay slots). remaining_ counts instructions that
    // still execute under the old mask.
    bool rrmPending_ = false;
    unsigned rrmPendingBank_ = 0;
    uint32_t rrmPendingValue_ = 0;
    unsigned rrmPendingRemaining_ = 0;

    FaultHook faultHook_;
    TraceHook traceHook_;
    uint32_t lastFaultClass_ = 0;
    uint64_t faultCount_ = 0;

    // Pipeline hazard tracking (only maintained when timing is
    // enabled). stepWrote_/stepWrotePhys_ capture the physical
    // destination at write time, so a mask change later in the same
    // step (or between steps) cannot mis-attribute the next load-use
    // stall.
    PipelineTimingStats timingStats_;
    mutable unsigned stepReads_[kMaxOperandReads] = {0, 0};
    mutable unsigned stepReadCount_ = 0;
    bool stepWrote_ = false;
    unsigned stepWrotePhys_ = 0;
    bool prevWasLoad_ = false;
    bool prevWroteReg_ = false;
    unsigned prevDestPhys_ = 0;
};

} // namespace rr::machine

#endif // RR_MACHINE_CPU_HH
