#include "machine/cpu.hh"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "base/bitops.hh"
#include "base/logging.hh"
#include "isa/semantics.hh"

namespace rr::machine {

using isa::Instruction;
using isa::Opcode;

const char *
trapName(TrapKind kind)
{
    switch (kind) {
      case TrapKind::None:
        return "none";
      case TrapKind::InvalidOpcode:
        return "invalid-opcode";
      case TrapKind::OperandTooWide:
        return "operand-too-wide";
      case TrapKind::RegOutOfRange:
        return "reg-out-of-range";
      case TrapKind::MemOutOfRange:
        return "mem-out-of-range";
      case TrapKind::ContextBounds:
        return "context-bounds-violation";
    }
    return "unknown";
}

bool
defaultPredecode()
{
    static const bool value = [] {
        const char *env = std::getenv("RR_CPU_PREDECODE");
        return env == nullptr || std::string_view(env) != "0";
    }();
    return value;
}

Cpu::Cpu(const CpuConfig &config)
    : config_(config),
      regs_(config.geometry.numRegs),
      mem_(config.memWords),
      relocation_(config.geometry),
      predecode_(config.predecode &&
                 config.memWords <= kPredecodeMaxWords),
      memData_(mem_.data()),
      regsData_(regs_.data()),
      memWords_(config.memWords),
      timingEnabled_(config.timing.enabled()),
      relocTableSize_(relocation_.tableSize())
{
    if (predecode_) {
        refreshRelocTable();
        blocks_.reserve(64);
        memVersionSeen_ = mem_.version();
    }
}

void
Cpu::setRrmImmediate(uint32_t mask, unsigned bank)
{
    relocation_.setMask(mask, bank);
}

unsigned
Cpu::relocateOrTrap(unsigned operand) const
{
    if (!config_.geometry.operandFits(operand))
        throw TrapSignal{TrapKind::OperandTooWide};
    const RelocationResult result = relocation_.relocate(operand);
    if (!result.ok)
        throw TrapSignal{TrapKind::ContextBounds};
    if (result.physical >= regs_.size())
        throw TrapSignal{TrapKind::RegOutOfRange};
    return result.physical;
}

uint32_t
Cpu::readOperand(unsigned operand) const
{
    const unsigned physical = relocateOrTrap(operand);
    if (config_.timing.enabled())
        recordOperandRead(physical);
    return regs_.read(physical);
}

void
Cpu::writeOperand(unsigned operand, uint32_t value)
{
    const unsigned physical = relocateOrTrap(operand);
    regs_.write(physical, value);
    if (config_.timing.enabled()) {
        stepWrote_ = true;
        stepWrotePhys_ = physical;
    }
}

// Out-of-line trap construction keeps the superblock handlers' operand
// accessors small enough to inline into the dispatch — the EH setup
// code otherwise pushes them past the inlining threshold and every ALU
// operand costs a real call.
[[noreturn, gnu::noinline]] void
Cpu::throwTrap(TrapKind kind)
{
    throw TrapSignal{kind};
}

[[gnu::noinline]] void
Cpu::recordOperandRead(unsigned physical) const
{
    rr_assert(stepReadCount_ < kMaxOperandReads,
              "instruction performs more than ", kMaxOperandReads,
              " register reads; widen Cpu::stepReads_");
    stepReads_[stepReadCount_++] = physical;
}

uint32_t
Cpu::readContextReg(unsigned context_reg) const
{
    const RelocationResult result = relocation_.relocate(context_reg);
    rr_assert(result.ok, "context register ", context_reg,
              " violates bounds");
    return regs_.read(result.physical);
}

void
Cpu::writeContextReg(unsigned context_reg, uint32_t value)
{
    const RelocationResult result = relocation_.relocate(context_reg);
    rr_assert(result.ok, "context register ", context_reg,
              " violates bounds");
    regs_.write(result.physical, value);
}

bool
Cpu::step()
{
    if (halted_ || trap_ != TrapKind::None)
        return false;

    // Delay-slot state machine: the mask installed by LDRRM becomes
    // visible only after ldrrmDelaySlots further instructions.
    advancePendingRrm();

    const uint32_t pc = pc_;
    if (!mem_.inRange(pc)) {
        trap_ = TrapKind::MemOutOfRange;
        return false;
    }
    const uint32_t word = mem_.read(pc);
    Instruction inst;
    if (!isa::decode(word, inst)) {
        trap_ = TrapKind::InvalidOpcode;
        return false;
    }

    if (traceHook_) {
        traceHook_(TraceEntry{cycles_, pc, inst, relocation_.mask(0)});
    }

    stepReadCount_ = 0;
    stepWrote_ = false;

    // The instruction executes from the pc it was fetched at, as in
    // execBlock: a hook that called setPc() cannot move it.
    try {
        execute(inst, pc);
    } catch (const TrapSignal &signal) {
        trap_ = signal.kind;
        pc_ = pc;
        return false;
    }

    ++cycles_;
    ++instret_;

    if (config_.timing.enabled())
        applyTiming(inst, pc);

    return trap_ == TrapKind::None && !halted_;
}

void
Cpu::applyTiming(const Instruction &inst, uint32_t pc_before)
{
    // Load-use: this instruction read the destination of the
    // immediately preceding load.
    if (prevWasLoad_ && prevWroteReg_) {
        for (unsigned i = 0; i < stepReadCount_; ++i) {
            if (stepReads_[i] == prevDestPhys_) {
                cycles_ += config_.timing.loadUsePenalty;
                timingStats_.loadUseStalls +=
                    config_.timing.loadUsePenalty;
                break;
            }
        }
    }
    // Redirection: any non-sequential next PC flushes the front of
    // the pipeline (taken branches, jumps, fault vectors).
    if (pc_ != pc_before + 1 && !halted_) {
        cycles_ += config_.timing.takenBranchPenalty;
        timingStats_.branchStalls += config_.timing.takenBranchPenalty;
    }
    if (inst.op == Opcode::LDRRM || inst.op == Opcode::LDRRMX) {
        cycles_ += config_.timing.ldrrmPenalty;
        timingStats_.ldrrmStalls += config_.timing.ldrrmPenalty;
    }
    // Track this instruction's write for the next step's hazard
    // check. The physical destination was captured by writeOperand at
    // write time, under the mask that was actually active — not
    // recomputed afterwards, when an LDRRM with zero delay slots (or
    // a fault hook) may already have switched the mask.
    prevWasLoad_ = inst.op == Opcode::LD;
    prevWroteReg_ = stepWrote_;
    if (stepWrote_)
        prevDestPhys_ = stepWrotePhys_;
}

uint64_t
Cpu::run(uint64_t max_steps)
{
    if (predecode_)
        return runBlocks(max_steps);
    uint64_t executed = 0;
    while (executed < max_steps) {
        const uint64_t before = instret_;
        const bool more = step();
        executed += instret_ - before;
        if (!more)
            break;
    }
    return executed;
}

void
Cpu::resume()
{
    halted_ = false;
    trap_ = TrapKind::None;
}

void
Cpu::execute(const Instruction &inst, uint32_t pc)
{
    uint32_t next = pc + 1;

    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::HALT:
        halted_ = true;
        break;

      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::SLL:
      case Opcode::SRL: case Opcode::SRA: case Opcode::SLT:
      case Opcode::SLTU: {
        // rs1 is read before rs2, as in execBlock, so that an
        // instruction with two bad operands raises the same trap.
        const uint32_t a = readOperand(inst.rs1);
        writeOperand(inst.rd, isa::alu(inst.op, a, readOperand(inst.rs2)));
        break;
      }
      case Opcode::ADDI: case Opcode::ANDI: case Opcode::ORI:
      case Opcode::XORI: case Opcode::SLTI: case Opcode::SLLI:
      case Opcode::SRLI: case Opcode::SRAI:
        writeOperand(inst.rd, isa::alu(inst.op, readOperand(inst.rs1),
                                       static_cast<uint32_t>(inst.imm)));
        break;
      case Opcode::LUI:
        writeOperand(inst.rd,
                     isa::alu(inst.op, 0, static_cast<uint32_t>(inst.imm)));
        break;

      case Opcode::LD: {
        const uint64_t addr =
            readOperand(inst.rs1) + static_cast<uint32_t>(inst.imm);
        if (!mem_.inRange(addr))
            throw TrapSignal{TrapKind::MemOutOfRange};
        writeOperand(inst.rd, mem_.read(addr));
        break;
      }
      case Opcode::ST: {
        const uint64_t addr =
            readOperand(inst.rs1) + static_cast<uint32_t>(inst.imm);
        const uint32_t value = readOperand(inst.rd);
        if (!mem_.inRange(addr))
            throw TrapSignal{TrapKind::MemOutOfRange};
        // Through Memory's public API, so the version counter and
        // write journal tell the superblock cache about the store.
        mem_.write(addr, value);
        break;
      }

      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE: {
        const uint32_t a = readOperand(inst.rs1);
        if (isa::branchTaken(inst.op, a, readOperand(inst.rs2)))
            next = pc + static_cast<uint32_t>(inst.imm);
        break;
      }

      case Opcode::JAL:
        writeOperand(inst.rd, pc + 1);
        next = pc + static_cast<uint32_t>(inst.imm);
        break;
      case Opcode::JALR: {
        const uint32_t target =
            readOperand(inst.rs1) + static_cast<uint32_t>(inst.imm);
        writeOperand(inst.rd, pc + 1);
        next = target;
        break;
      }
      case Opcode::JMP:
        next = readOperand(inst.rs1);
        break;

      case Opcode::LDRRM:
        rrmPendingValue_ = readOperand(inst.rs1);
        rrmPendingBank_ = 0;
        rrmPendingRemaining_ = config_.ldrrmDelaySlots + 1;
        rrmPending_ = true;
        break;
      case Opcode::RDRRM:
        writeOperand(inst.rd, relocation_.mask(0));
        break;
      case Opcode::LDRRMX: {
        const auto bank = static_cast<unsigned>(inst.imm);
        if (bank >= relocation_.numBanks())
            throw TrapSignal{TrapKind::InvalidOpcode};
        // Extension masks are loaded without delay slots for
        // simplicity; bank 0 keeps the architected delay behaviour.
        const uint32_t value = readOperand(inst.rs1);
        if (bank == 0) {
            rrmPendingValue_ = value;
            rrmPendingBank_ = 0;
            rrmPendingRemaining_ = config_.ldrrmDelaySlots + 1;
            rrmPending_ = true;
        } else {
            relocation_.setMask(value, bank);
        }
        break;
      }

      case Opcode::MFPSW:
        writeOperand(inst.rd, psw_);
        break;
      case Opcode::MTPSW:
        psw_ = readOperand(inst.rs1);
        break;

      case Opcode::FF1:
        writeOperand(inst.rd, isa::alu(inst.op, readOperand(inst.rs1), 0));
        break;

      case Opcode::FAULT:
        lastFaultClass_ = static_cast<uint32_t>(inst.imm);
        ++faultCount_;
        pc_ = next;
        if (faultHook_)
            faultHook_(*this, lastFaultClass_);
        return; // the hook may have redirected the PC

      case Opcode::NumOpcodes:
        throw TrapSignal{TrapKind::InvalidOpcode};
    }

    pc_ = next;
}

// ---------------------------------------------------------------------
// Checkpointing (rr.ckpt.v1)

namespace {

// Section and field tags for the "machine" checkpoint kind. The meta
// section tag 0x01 is reserved by rr::ckpt.
constexpr uint32_t kSectionCpuConfig = 0x10;
constexpr uint32_t kSectionCpuState = 0x11;

enum CpuConfigField : uint32_t
{
    kCfgNumRegs = 1,
    kCfgOperandWidth = 2,
    kCfgLdrrmDelaySlots = 3,
    kCfgMemWords = 4,
    kCfgRelocationMode = 5,
    kCfgRrmBanks = 6,
    kCfgTakenBranchPenalty = 7,
    kCfgLoadUsePenalty = 8,
    kCfgLdrrmPenalty = 9,
};

enum CpuStateField : uint32_t
{
    kCpuPc = 1,
    kCpuPsw = 2,
    kCpuHalted = 3,
    kCpuTrap = 4,
    kCpuCycles = 5,
    kCpuInstret = 6,
    kCpuRegs = 7,
    kCpuMem = 8,
    kCpuMasks = 9,
    kCpuContextSize = 10,
    kCpuRrmPending = 11,
    kCpuRrmPendingBank = 12,
    kCpuRrmPendingValue = 13,
    kCpuRrmPendingRemaining = 14,
    kCpuLastFaultClass = 15,
    kCpuFaultCount = 16,
    kCpuBranchStalls = 17,
    kCpuLoadUseStalls = 18,
    kCpuLdrrmStalls = 19,
    kCpuPrevWasLoad = 20,
    kCpuPrevWroteReg = 21,
    kCpuPrevDestPhys = 22,
};

} // namespace

std::string
Cpu::fingerprint() const
{
    char buf[160];
    std::snprintf(
        buf, sizeof buf,
        "machine F=%u w=%u delay=%u mem=%llu mode=%u banks=%u "
        "tb=%u lu=%u ld=%u",
        config_.geometry.numRegs, config_.geometry.operandWidth,
        config_.ldrrmDelaySlots,
        static_cast<unsigned long long>(config_.memWords),
        static_cast<unsigned>(config_.geometry.mode),
        config_.geometry.banks, config_.timing.takenBranchPenalty,
        config_.timing.loadUsePenalty, config_.timing.ldrrmPenalty);
    return buf;
}

void
Cpu::saveState(ckpt::Writer &writer) const
{
    writer.beginSection(kSectionCpuConfig);
    writer.u64(kCfgNumRegs, config_.geometry.numRegs);
    writer.u64(kCfgOperandWidth, config_.geometry.operandWidth);
    writer.u64(kCfgLdrrmDelaySlots, config_.ldrrmDelaySlots);
    writer.u64(kCfgMemWords, config_.memWords);
    writer.u64(kCfgRelocationMode,
               static_cast<uint64_t>(config_.geometry.mode));
    writer.u64(kCfgRrmBanks, config_.geometry.banks);
    writer.u64(kCfgTakenBranchPenalty,
               config_.timing.takenBranchPenalty);
    writer.u64(kCfgLoadUsePenalty, config_.timing.loadUsePenalty);
    writer.u64(kCfgLdrrmPenalty, config_.timing.ldrrmPenalty);
    writer.endSection();

    writer.beginSection(kSectionCpuState);
    writer.u64(kCpuPc, pc_);
    writer.u64(kCpuPsw, psw_);
    writer.u64(kCpuHalted, halted_ ? 1 : 0);
    writer.u64(kCpuTrap, static_cast<uint64_t>(trap_));
    writer.u64(kCpuCycles, cycles_);
    writer.u64(kCpuInstret, instret_);
    writer.u32vec(kCpuRegs, regs_.snapshot());
    writer.u32vec(kCpuMem,
                  std::vector<uint32_t>(mem_.data(),
                                        mem_.data() + mem_.size()));
    writer.u32vec(kCpuMasks, relocation_.masks());
    writer.u64(kCpuContextSize, relocation_.contextSize());
    writer.u64(kCpuRrmPending, rrmPending_ ? 1 : 0);
    writer.u64(kCpuRrmPendingBank, rrmPendingBank_);
    writer.u64(kCpuRrmPendingValue, rrmPendingValue_);
    writer.u64(kCpuRrmPendingRemaining, rrmPendingRemaining_);
    writer.u64(kCpuLastFaultClass, lastFaultClass_);
    writer.u64(kCpuFaultCount, faultCount_);
    writer.u64(kCpuBranchStalls, timingStats_.branchStalls);
    writer.u64(kCpuLoadUseStalls, timingStats_.loadUseStalls);
    writer.u64(kCpuLdrrmStalls, timingStats_.ldrrmStalls);
    writer.u64(kCpuPrevWasLoad, prevWasLoad_ ? 1 : 0);
    writer.u64(kCpuPrevWroteReg, prevWroteReg_ ? 1 : 0);
    writer.u64(kCpuPrevDestPhys, prevDestPhys_);
    writer.endSection();
}

void
Cpu::restoreState(const ckpt::Reader &reader)
{
    const std::vector<uint32_t> regs =
        reader.u32vec(kSectionCpuState, kCpuRegs);
    const std::vector<uint32_t> mem =
        reader.u32vec(kSectionCpuState, kCpuMem);
    const std::vector<uint32_t> masks =
        reader.u32vec(kSectionCpuState, kCpuMasks);
    if (regs.size() != regs_.size())
        throw ckpt::Error(
            "register file size mismatch: checkpoint has " +
            std::to_string(regs.size()) + ", machine has " +
            std::to_string(regs_.size()));
    if (mem.size() != mem_.size())
        throw ckpt::Error("memory size mismatch: checkpoint has " +
                          std::to_string(mem.size()) +
                          " words, machine has " +
                          std::to_string(mem_.size()));
    if (masks.size() != relocation_.numBanks())
        throw ckpt::Error("RRM bank count mismatch: checkpoint has " +
                          std::to_string(masks.size()) +
                          ", machine has " +
                          std::to_string(relocation_.numBanks()));
    const uint64_t contextSize =
        reader.u64(kSectionCpuState, kCpuContextSize);
    if (contextSize == 0 || (contextSize & (contextSize - 1)) != 0 ||
        contextSize > relocation_.tableSize())
        throw ckpt::Error("invalid relocation context size " +
                          std::to_string(contextSize));
    const uint64_t trap = reader.u64(kSectionCpuState, kCpuTrap);
    if (trap > static_cast<uint64_t>(TrapKind::ContextBounds))
        throw ckpt::Error("invalid trap kind " + std::to_string(trap));

    for (unsigned i = 0; i < regs_.size(); ++i)
        regs_.write(i, regs[i]);
    for (size_t i = 0; i < mem_.size(); ++i)
        mem_.write(i, mem[i]);
    relocation_.restoreMasks(masks,
                             static_cast<unsigned>(contextSize));

    pc_ = static_cast<uint32_t>(reader.u64(kSectionCpuState, kCpuPc));
    psw_ =
        static_cast<uint32_t>(reader.u64(kSectionCpuState, kCpuPsw));
    halted_ = reader.u64(kSectionCpuState, kCpuHalted) != 0;
    trap_ = static_cast<TrapKind>(trap);
    cycles_ = reader.u64(kSectionCpuState, kCpuCycles);
    instret_ = reader.u64(kSectionCpuState, kCpuInstret);
    rrmPending_ = reader.u64(kSectionCpuState, kCpuRrmPending) != 0;
    rrmPendingBank_ = static_cast<unsigned>(
        reader.u64(kSectionCpuState, kCpuRrmPendingBank));
    rrmPendingValue_ = static_cast<uint32_t>(
        reader.u64(kSectionCpuState, kCpuRrmPendingValue));
    rrmPendingRemaining_ = static_cast<unsigned>(
        reader.u64(kSectionCpuState, kCpuRrmPendingRemaining));
    lastFaultClass_ = static_cast<uint32_t>(
        reader.u64(kSectionCpuState, kCpuLastFaultClass));
    faultCount_ = reader.u64(kSectionCpuState, kCpuFaultCount);
    timingStats_.branchStalls =
        reader.u64(kSectionCpuState, kCpuBranchStalls);
    timingStats_.loadUseStalls =
        reader.u64(kSectionCpuState, kCpuLoadUseStalls);
    timingStats_.ldrrmStalls =
        reader.u64(kSectionCpuState, kCpuLdrrmStalls);
    prevWasLoad_ = reader.u64(kSectionCpuState, kCpuPrevWasLoad) != 0;
    prevWroteReg_ =
        reader.u64(kSectionCpuState, kCpuPrevWroteReg) != 0;
    prevDestPhys_ = static_cast<unsigned>(
        reader.u64(kSectionCpuState, kCpuPrevDestPhys));

    // Never trust pre-restore memoization: re-fetch the relocation
    // table from the (just re-validated) unit, and rebuild superblocks
    // from scratch — they are derived state, never serialized.
    if (predecode_) {
        refreshRelocTable();
        flushBlocks();
        mem_.clearWriteLog();
        memVersionSeen_ = mem_.version();
    }
}

CpuConfig
Cpu::configFromCheckpoint(const ckpt::Reader &reader)
{
    const uint64_t mode =
        reader.u64(kSectionCpuConfig, kCfgRelocationMode);
    if (mode > static_cast<uint64_t>(RelocationMode::Add))
        throw ckpt::Error("invalid relocation mode " +
                          std::to_string(mode));
    CpuConfig config;
    config.geometry.numRegs = static_cast<unsigned>(
        reader.u64(kSectionCpuConfig, kCfgNumRegs));
    config.geometry.operandWidth = static_cast<unsigned>(
        reader.u64(kSectionCpuConfig, kCfgOperandWidth));
    config.ldrrmDelaySlots = static_cast<unsigned>(
        reader.u64(kSectionCpuConfig, kCfgLdrrmDelaySlots));
    config.memWords = static_cast<size_t>(
        reader.u64(kSectionCpuConfig, kCfgMemWords));
    config.geometry.mode = static_cast<RelocationMode>(mode);
    config.geometry.banks = static_cast<unsigned>(
        reader.u64(kSectionCpuConfig, kCfgRrmBanks));
    config.timing.takenBranchPenalty = static_cast<unsigned>(
        reader.u64(kSectionCpuConfig, kCfgTakenBranchPenalty));
    config.timing.loadUsePenalty = static_cast<unsigned>(
        reader.u64(kSectionCpuConfig, kCfgLoadUsePenalty));
    config.timing.ldrrmPenalty = static_cast<unsigned>(
        reader.u64(kSectionCpuConfig, kCfgLdrrmPenalty));

    // Geometry sanity before the CpuConfig reaches a constructor
    // assertion (hostile files must fail with ckpt::Error, not abort).
    const std::string geometry = config.geometry.error();
    if (!geometry.empty())
        throw ckpt::Error("checkpoint machine configuration is "
                          "invalid: " + geometry);
    if (config.memWords == 0 || config.memWords > (size_t{1} << 32))
        throw ckpt::Error("checkpoint machine configuration is "
                          "invalid: memory of " +
                          std::to_string(config.memWords) + " words");
    return config;
}

} // namespace rr::machine
