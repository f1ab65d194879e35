/**
 * @file
 * Token-threaded superblock dispatch for the RRISC interpreter.
 *
 * With predecode active, Cpu::run executes cached *superblocks*:
 * runs of instructions keyed by entry PC, decoded once from memory
 * and then executed descriptor-to-descriptor with computed-goto
 * dispatch. A straight-line run pays one validity check per block
 * instead of a decode and a relocation-epoch check per instruction.
 *
 * A cached block never runs stale code:
 *
 *  - simulated stores check the per-word cover map and mark the cache
 *    stale when they hit a word any block decoded (self-modifying
 *    code), ending the current block before a stale descriptor could
 *    execute;
 *  - host writes through Memory's public API, and stores made by the
 *    reference step(), are caught by the memory version counter /
 *    bounded write journal at block boundaries; a journal hit demotes
 *    blocks to "unverified" rather than dropping them — each block
 *    re-proves itself at its next entry by comparing the covered
 *    words against its build-time snapshot, so reloading an identical
 *    image (the common bench/runtime reset) keeps the whole cache
 *    warm;
 *  - checkpoint restore flushes everything — superblocks are derived
 *    state and never serialized (docs/CKPT.md).
 *
 * Every descriptor retires exactly like step(): budget check,
 * delay-slot advance, trace callback, and pipeline_timing charge per
 * instruction, so traces, stats, and checkpoints stay byte-identical
 * to the per-instruction path.
 */

#include "machine/cpu.hh"

#include <algorithm>

#include "isa/semantics.hh"

namespace rr::machine {

using isa::Instruction;
using isa::Opcode;

namespace {

/**
 * Dispatch tokens. The first isa::numOpcodes values mirror the Opcode
 * enum so instructions translate with a cast; the end-of-block
 * sentinel follows.
 */
#define RR_TOKENS(X) \
    X(NOP) X(HALT) \
    X(ADD) X(SUB) X(AND) X(OR) X(XOR) X(SLL) X(SRL) X(SRA) \
    X(SLT) X(SLTU) \
    X(ADDI) X(ANDI) X(ORI) X(XORI) X(SLTI) X(SLLI) X(SRLI) X(SRAI) \
    X(LUI) \
    X(LD) X(ST) \
    X(BEQ) X(BNE) X(BLT) X(BGE) \
    X(JAL) X(JALR) X(JMP) \
    X(LDRRM) X(RDRRM) X(LDRRMX) \
    X(MFPSW) X(MTPSW) \
    X(FF1) \
    X(FAULT) \
    X(END)

enum Token : uint16_t
{
#define X(n) tok_##n,
    RR_TOKENS(X)
#undef X
    tok_Count
};

// Pin the opcode-token mirror; a new Opcode inserted mid-enum breaks
// these rather than silently dispatching the wrong handler.
static_assert(tok_NOP == static_cast<uint16_t>(Opcode::NOP));
static_assert(tok_LD == static_cast<uint16_t>(Opcode::LD));
static_assert(tok_BGE == static_cast<uint16_t>(Opcode::BGE));
static_assert(tok_FAULT == static_cast<uint16_t>(Opcode::FAULT));
static_assert(tok_END == isa::numOpcodes);

} // namespace

const Cpu::SuperBlock *
Cpu::buildBlock(uint32_t entry)
{
    if (blocks_.size() >= kMaxSuperblocks)
        flushBlocks();

    const uint32_t limit = static_cast<uint32_t>(std::min<uint64_t>(
        memWords_, uint64_t{entry} + kMaxBlockWords));

    SuperBlock blk;
    blk.entry = entry;
    blk.ops.reserve(16);

    uint32_t pc = entry;
    while (pc < limit) {
        Instruction inst;
        if (!isa::decode(memData_[pc], inst))
            break; // undecodable: the block ends just before it

        MicroOp op;
        op.pc = pc;
        op.inst = inst;
        op.token = static_cast<uint16_t>(inst.op);

        // Unconditional control transfers and stops end the block.
        // Conditional branches do not: the not-taken path continues
        // in-block (that is what makes these superblocks).
        const bool terminal =
            inst.op == Opcode::JAL || inst.op == Opcode::JALR ||
            inst.op == Opcode::JMP || inst.op == Opcode::HALT ||
            inst.op == Opcode::FAULT;

        blk.ops.push_back(op);
        ++pc;
        if (terminal)
            break;
    }

    if (blk.ops.empty())
        return nullptr; // entry word undecodable

    // End-of-block sentinel: execution resumes at the fallthrough pc
    // (which may be out of range — the outer loop raises the trap).
    MicroOp end;
    end.token = tok_END;
    end.pc = pc;
    blk.ops.push_back(end);
    blk.words = pc - entry;
    blk.seenEpoch = codeEpoch_;
    blk.raw.assign(memData_ + entry, memData_ + pc);

    const auto idx = static_cast<int32_t>(blocks_.size());
    for (uint32_t w = entry; w < entry + blk.words; ++w)
        ++blockCover_[w];
    blockIndex_[entry] = idx;
    blocks_.push_back(std::move(blk));
    ++sbBuilt_;
    return &blocks_.back();
}

void
Cpu::flushBlocks()
{
    if (!blocks_.empty()) {
        for (const SuperBlock &blk : blocks_) {
            blockIndex_[blk.entry] = -1;
            for (uint32_t w = blk.entry; w < blk.entry + blk.words;
                 ++w)
                --blockCover_[w];
        }
        blocks_.clear();
        ++sbFlushes_;
    }
    blocksStale_ = false;
}

void
Cpu::syncHostWrites()
{
    if (memVersionSeen_ == mem_.version())
        return;
    // Something wrote memory through the public API since the last
    // block boundary (runtime pokes, context loads). When a journaled
    // address is covered by a block — or the journal overflowed, which
    // means "anything may have changed" — advance the code epoch: that
    // demotes every block to unverified, and each one re-proves itself
    // at its next entry by comparing the covered words against its
    // build-time snapshot (runBlocks). Reloading an identical image
    // therefore costs one word-compare pass per re-entered block, not
    // a rebuild of the whole cache.
    bool hit = mem_.writeLogOverflowed();
    if (!hit) {
        for (const uint32_t addr : mem_.writeLog()) {
            if (addr < blockCover_.size() &&
                blockCover_[addr] != 0) {
                hit = true;
                break;
            }
        }
    }
    if (hit)
        ++codeEpoch_;
    mem_.clearWriteLog();
    memVersionSeen_ = mem_.version();
}

uint64_t
Cpu::runBlocks(uint64_t max_steps)
{
    uint64_t executed = 0;
    while (executed < max_steps) {
        if (halted_ || trap_ != TrapKind::None)
            break;
        syncHostWrites();
        if (blocksStale_)
            flushBlocks();
        if (pc_ >= memWords_) {
            // Match the per-step path exactly: the fetch attempt
            // advances the LDRRM delay-slot machine even when it
            // traps.
            advancePendingRrm();
            trap_ = TrapKind::MemOutOfRange;
            break;
        }
        if (relocEpoch_ != relocation_.epoch())
            refreshRelocTable();

        const SuperBlock *blk = nullptr;
        const int32_t idx = blockIndex_[pc_];
        if (idx >= 0) {
            SuperBlock &cand = blocks_[static_cast<size_t>(idx)];
            if (cand.seenEpoch == codeEpoch_) {
                blk = &cand;
            } else if (std::equal(cand.raw.begin(), cand.raw.end(),
                                  memData_ + cand.entry)) {
                // Host writes happened but this block's code did not
                // change (e.g. the same image was reloaded): keep it.
                cand.seenEpoch = codeEpoch_;
                ++sbReverified_;
                blk = &cand;
            } else {
                // The covered words really did change; every block is
                // suspect, so start the cache over.
                flushBlocks();
            }
        }
        if (blk == nullptr) {
            blk = buildBlock(pc_);
            if (blk == nullptr) {
                // Undecodable entry word: take one reference step so
                // the InvalidOpcode trap is raised with identical
                // semantics (no trace event, no retire).
                step();
                continue;
            }
        }

        const uint64_t budget = max_steps - executed;
        executed += (traceHook_ || timingEnabled_)
                        ? execBlock<true>(*blk, budget)
                        : execBlock<false>(*blk, budget);
    }
    return executed;
}

// ---------------------------------------------------------------------
// The token-threaded executor.
//
// Retirement contract (identical to step()): per instruction —
// budget check, delay-slot advance, trace hook (careful), execute,
// ++cycles_/++instret_, applyTiming (careful). Fast mode accumulates
// the counters in a register and flushes them at every exit (and
// before the fault hook, which may observe cycles() or call stall()).

// Flush fast-mode counter accumulation into the architectural
// counters. No-op in careful mode, which maintains them per op.
#define RR_FLUSH()                                                     \
    do {                                                               \
        if constexpr (!Careful) {                                      \
            cycles_ += done;                                           \
            instret_ += done;                                          \
        }                                                              \
    } while (0)

#define RR_EXIT()                                                      \
    do {                                                               \
        RR_FLUSH();                                                    \
        return done;                                                   \
    } while (0)

// Per-instruction prologue: budget, trap bookkeeping, LDRRM delay
// slots, and (careful mode) the trace hook + hazard-window reset.
#define RR_PROLOG()                                                    \
    if (done >= budget) [[unlikely]] {                                 \
        pc_ = op->pc;                                                  \
        RR_EXIT();                                                     \
    }                                                                  \
    trapPc = op->pc;                                                   \
    if (rrmPending_) [[unlikely]] {                                    \
        advancePendingRrm();                                           \
        if (!rrmPending_) {                                            \
            refreshRelocTable();                                       \
            reloc = relocTable_;                                       \
        }                                                              \
    }                                                                  \
    if constexpr (Careful) {                                           \
        if (traceHook_) {                                              \
            traceHook_(TraceEntry{cycles_, op->pc, op->inst,           \
                                  relocation_.mask(0)});               \
        }                                                              \
        if (timingEnabled_) {                                          \
            stepReadCount_ = 0;                                        \
            stepWrote_ = false;                                        \
        }                                                              \
    }

// Block chaining (fast mode only): when a control transfer lands on
// the entry of an already-built, verified superblock, jump straight to
// its descriptors instead of returning to the outer loop. The outer
// loop's duties are all discharged or impossible here: no hook can
// have run (fast mode has none, FAULT exits), so no host write can
// have arrived since the last sync; a simulated store to cached code
// sets blocksStale_ and exits its block immediately, so the flag check
// suffices; LDRRM delay slots and bank switches refresh the relocation
// table inline; and the per-instruction budget check in RR_PROLOG
// still bounds the chained run. Careful mode never chains — the trace
// hook may legitimately write memory between instructions, and the
// outer loop must observe that.
#define RR_CHAIN(chainPc_)                                             \
    do {                                                               \
        if constexpr (!Careful) {                                      \
            if ((chainPc_) < memSz && !blocksStale_) {                 \
                const int32_t ci_ = blockIdx[(chainPc_)];              \
                if (ci_ >= 0) {                                        \
                    const SuperBlock &nb_ =                            \
                        blocksArr[static_cast<size_t>(ci_)];           \
                    if (nb_.seenEpoch == codeEp) {                     \
                        op = nb_.ops.data();                           \
                        RR_DISPATCH();                                 \
                    }                                                  \
                }                                                      \
            }                                                          \
        }                                                              \
    } while (0)

// Retire a control transfer and leave the block (or chain into the
// target block in fast mode). target_ must be side-effect free.
#define RR_RETIRE_EXIT(target_)                                        \
    do {                                                               \
        if constexpr (Careful) {                                       \
            pc_ = (target_);                                           \
            ++cycles_;                                                 \
            ++instret_;                                                \
            ++done;                                                    \
            if (timingEnabled_)                                        \
                applyTiming(op->inst, op->pc);                         \
        } else {                                                       \
            const uint32_t tgt_ = (target_);                           \
            ++done;                                                    \
            RR_CHAIN(tgt_);                                            \
            pc_ = tgt_;                                                \
        }                                                              \
        RR_EXIT();                                                     \
    } while (0)

// Retire an instruction that stops the machine (HALT) or whose block
// must end here (a store into cached code). Never chains.
#define RR_RETIRE_STOP(target_)                                        \
    do {                                                               \
        pc_ = (target_);                                               \
        if constexpr (Careful) {                                       \
            ++cycles_;                                                 \
            ++instret_;                                                \
            ++done;                                                    \
            if (timingEnabled_)                                        \
                applyTiming(op->inst, op->pc);                         \
        } else {                                                       \
            ++done;                                                    \
        }                                                              \
        RR_EXIT();                                                     \
    } while (0)

#define RR_CASE(label) L_##label:
#define RR_DISPATCH() goto *kLabels[op->token]

// Retire a straight-line instruction and dispatch the next one.
#define RR_NEXT()                                                      \
    do {                                                               \
        if constexpr (Careful) {                                       \
            pc_ = op->pc + 1;                                          \
            ++cycles_;                                                 \
            ++instret_;                                                \
            ++done;                                                    \
            if (timingEnabled_)                                        \
                applyTiming(op->inst, op->pc);                         \
        } else {                                                       \
            ++done;                                                    \
        }                                                              \
        ++op;                                                          \
        RR_DISPATCH();                                                 \
    } while (0)

// ALU instruction: rs1 (read first) op rhs, through isa::alu. The
// opcode is a literal, so the call folds to the one operation.
#define RR_ALU_HANDLER(name, rhs)                                      \
    RR_CASE(name)                                                      \
    {                                                                  \
        RR_PROLOG();                                                   \
        const uint32_t lhs = rdop(op->inst.rs1);                       \
        wrop(op->inst.rd, isa::alu(Opcode::name, lhs, (rhs)));         \
        RR_NEXT();                                                     \
    }

// Conditional branch: fall through in-block when not taken.
#define RR_BRANCH_HANDLER(name)                                        \
    RR_CASE(name)                                                      \
    {                                                                  \
        RR_PROLOG();                                                   \
        const uint32_t lhs = rdop(op->inst.rs1);                       \
        const uint32_t rhs = rdop(op->inst.rs2);                       \
        if (isa::branchTaken(Opcode::name, lhs, rhs)) {                \
            RR_RETIRE_EXIT(op->pc +                                    \
                           static_cast<uint32_t>(op->inst.imm));       \
        }                                                              \
        RR_NEXT();                                                     \
    }

template <bool Careful>
uint64_t
Cpu::execBlock(const SuperBlock &blk, uint64_t budget)
{
    const MicroOp *op = blk.ops.data();
    uint64_t done = 0;
    uint32_t trapPc = op->pc;

    // Hot members hoisted into locals: register writes go through
    // uint32_t pointers, which under type-based aliasing could clobber
    // any integral member, so the compiler would otherwise reload
    // these on every operand access. None of them changes inside a
    // block except the relocation table, which the LDRRM retirement
    // paths refresh explicitly.
    const RelocationResult *reloc = relocTable_;
    const unsigned relocSz = relocTableSize_;
    uint32_t *const regs = regsData_;
    uint32_t *const mem = memData_;
    const uint64_t memSz = memWords_;
    const int32_t *const blockIdx = blockIndex_.data();
    const SuperBlock *const blocksArr = blocks_.data();
    const uint64_t codeEp = codeEpoch_;
    const uint16_t *const cover = blockCover_.data();

    auto rdop = [&](unsigned operand) -> uint32_t {
        if (operand >= relocSz) [[unlikely]]
            throwTrap(TrapKind::OperandTooWide);
        const RelocationResult &r = reloc[operand];
        if (!r.ok) [[unlikely]]
            throwTrap(TrapKind::ContextBounds);
        if constexpr (Careful) {
            if (timingEnabled_)
                recordOperandRead(r.physical);
        }
        return regs[r.physical];
    };
    auto wrop = [&](unsigned operand, uint32_t value) {
        if (operand >= relocSz) [[unlikely]]
            throwTrap(TrapKind::OperandTooWide);
        const RelocationResult &r = reloc[operand];
        if (!r.ok) [[unlikely]]
            throwTrap(TrapKind::ContextBounds);
        regs[r.physical] = value;
        if constexpr (Careful) {
            if (timingEnabled_) {
                stepWrote_ = true;
                stepWrotePhys_ = r.physical;
            }
        }
    };

    try {
        static const void *const kLabels[] = {
#define X(n) &&L_##n,
            RR_TOKENS(X)
#undef X
        };
        static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      tok_Count);
        RR_DISPATCH();

        RR_CASE(NOP)
        {
            RR_PROLOG();
            RR_NEXT();
        }

        RR_CASE(HALT)
        {
            RR_PROLOG();
            halted_ = true;
            RR_RETIRE_STOP(op->pc + 1);
        }

        RR_ALU_HANDLER(ADD, rdop(op->inst.rs2))
        RR_ALU_HANDLER(SUB, rdop(op->inst.rs2))
        RR_ALU_HANDLER(AND, rdop(op->inst.rs2))
        RR_ALU_HANDLER(OR, rdop(op->inst.rs2))
        RR_ALU_HANDLER(XOR, rdop(op->inst.rs2))
        RR_ALU_HANDLER(SLL, rdop(op->inst.rs2))
        RR_ALU_HANDLER(SRL, rdop(op->inst.rs2))
        RR_ALU_HANDLER(SRA, rdop(op->inst.rs2))
        RR_ALU_HANDLER(SLT, rdop(op->inst.rs2))
        RR_ALU_HANDLER(SLTU, rdop(op->inst.rs2))
        RR_ALU_HANDLER(ADDI, static_cast<uint32_t>(op->inst.imm))
        RR_ALU_HANDLER(ANDI, static_cast<uint32_t>(op->inst.imm))
        RR_ALU_HANDLER(ORI, static_cast<uint32_t>(op->inst.imm))
        RR_ALU_HANDLER(XORI, static_cast<uint32_t>(op->inst.imm))
        RR_ALU_HANDLER(SLTI, static_cast<uint32_t>(op->inst.imm))
        RR_ALU_HANDLER(SLLI, static_cast<uint32_t>(op->inst.imm))
        RR_ALU_HANDLER(SRLI, static_cast<uint32_t>(op->inst.imm))
        RR_ALU_HANDLER(SRAI, static_cast<uint32_t>(op->inst.imm))

        RR_CASE(LUI)
        {
            RR_PROLOG();
            wrop(op->inst.rd, isa::alu(Opcode::LUI, 0,
                                       static_cast<uint32_t>(op->inst.imm)));
            RR_NEXT();
        }

        RR_CASE(LD)
        {
            RR_PROLOG();
            const uint64_t addr =
                rdop(op->inst.rs1) + static_cast<uint32_t>(op->inst.imm);
            if (addr >= memSz) [[unlikely]]
                throwTrap(TrapKind::MemOutOfRange);
            wrop(op->inst.rd, mem[addr]);
            RR_NEXT();
        }
        RR_CASE(ST)
        {
            RR_PROLOG();
            const uint64_t addr =
                rdop(op->inst.rs1) + static_cast<uint32_t>(op->inst.imm);
            const uint32_t value = rdop(op->inst.rd);
            if (addr >= memSz) [[unlikely]]
                throwTrap(TrapKind::MemOutOfRange);
            mem[addr] = value;
            if (cover[addr] != 0) [[unlikely]] {
                // The store clobbered cached code — possibly a later
                // descriptor of this very block. Mark the cache stale
                // and end the block before anything stale can run.
                blocksStale_ = true;
                RR_RETIRE_STOP(op->pc + 1);
            }
            RR_NEXT();
        }

        RR_BRANCH_HANDLER(BEQ)
        RR_BRANCH_HANDLER(BNE)
        RR_BRANCH_HANDLER(BLT)
        RR_BRANCH_HANDLER(BGE)

        RR_CASE(JAL)
        {
            RR_PROLOG();
            wrop(op->inst.rd, op->pc + 1);
            RR_RETIRE_EXIT(op->pc +
                           static_cast<uint32_t>(op->inst.imm));
        }
        RR_CASE(JALR)
        {
            RR_PROLOG();
            const uint32_t target =
                rdop(op->inst.rs1) + static_cast<uint32_t>(op->inst.imm);
            wrop(op->inst.rd, op->pc + 1);
            RR_RETIRE_EXIT(target);
        }
        RR_CASE(JMP)
        {
            RR_PROLOG();
            const uint32_t target = rdop(op->inst.rs1);
            RR_RETIRE_EXIT(target);
        }

        RR_CASE(LDRRM)
        {
            RR_PROLOG();
            rrmPendingValue_ = rdop(op->inst.rs1);
            rrmPendingBank_ = 0;
            rrmPendingRemaining_ = config_.ldrrmDelaySlots + 1;
            rrmPending_ = true;
            RR_NEXT();
        }
        RR_CASE(RDRRM)
        {
            RR_PROLOG();
            wrop(op->inst.rd, relocation_.mask(0));
            RR_NEXT();
        }
        RR_CASE(LDRRMX)
        {
            RR_PROLOG();
            const auto bank = static_cast<unsigned>(op->inst.imm);
            if (bank >= relocation_.numBanks())
                throwTrap(TrapKind::InvalidOpcode);
            const uint32_t value = rdop(op->inst.rs1);
            if (bank == 0) {
                rrmPendingValue_ = value;
                rrmPendingBank_ = 0;
                rrmPendingRemaining_ = config_.ldrrmDelaySlots + 1;
                rrmPending_ = true;
            } else {
                relocTable_ = relocation_.installMask(value, bank);
                relocEpoch_ = relocation_.epoch();
                reloc = relocTable_;
            }
            RR_NEXT();
        }

        RR_CASE(MFPSW)
        {
            RR_PROLOG();
            wrop(op->inst.rd, psw_);
            RR_NEXT();
        }
        RR_CASE(MTPSW)
        {
            RR_PROLOG();
            psw_ = rdop(op->inst.rs1);
            RR_NEXT();
        }

        RR_CASE(FF1)
        {
            RR_PROLOG();
            wrop(op->inst.rd, isa::alu(Opcode::FF1, rdop(op->inst.rs1), 0));
            RR_NEXT();
        }

        RR_CASE(FAULT)
        {
            RR_PROLOG();
            RR_FLUSH();
            // Copy what the epilogue needs before the hook runs: the
            // hook may redirect the pc, charge stalls, or write
            // memory (which can mark this very block stale).
            const Instruction finst = op->inst;
            const uint32_t fpc = op->pc;
            lastFaultClass_ = static_cast<uint32_t>(finst.imm);
            ++faultCount_;
            pc_ = fpc + 1;
            if (faultHook_)
                faultHook_(*this, lastFaultClass_);
            ++cycles_;
            ++instret_;
            ++done;
            if constexpr (Careful) {
                if (timingEnabled_)
                    applyTiming(finst, fpc);
            }
            return done;
        }

        RR_CASE(END)
        {
            // Fallthrough off the end of the block: chain into the
            // next block when one is already cached, else resume at
            // the fallthrough pc (no instruction retires here).
            RR_CHAIN(op->pc);
            pc_ = op->pc;
            RR_EXIT();
        }
    } catch (const TrapSignal &signal) {
        RR_FLUSH();
        trap_ = signal.kind;
        pc_ = trapPc;
        return done;
    }
}

#undef RR_FLUSH
#undef RR_EXIT
#undef RR_PROLOG
#undef RR_CHAIN
#undef RR_RETIRE_EXIT
#undef RR_RETIRE_STOP
#undef RR_CASE
#undef RR_DISPATCH
#undef RR_NEXT
#undef RR_ALU_HANDLER
#undef RR_BRANCH_HANDLER
#undef RR_TOKENS

template uint64_t Cpu::execBlock<false>(const SuperBlock &, uint64_t);
template uint64_t Cpu::execBlock<true>(const SuperBlock &, uint64_t);

} // namespace rr::machine
