/**
 * @file
 * The `program` fuzz kind: generated RRISC images run on machine::Cpu
 * with predecode off vs on, table() vs relocate() at every mask
 * reached, rrlint window claims vs registers actually touched, and
 * rrlint operand-too-wide findings vs the CPU's traps.
 */

#include "fuzz/kind.hh"

#include <cstdio>
#include <map>
#include <set>

#include "analysis/static/cfg.hh"
#include "analysis/static/lint.hh"
#include "analysis/static/liveness.hh"
#include "analysis/static/rrm_state.hh"
#include "assembler/assembler.hh"
#include "base/logging.hh"
#include "exp/report.hh"
#include "isa/instruction.hh"
#include "machine/cpu.hh"

namespace rr::fuzz {

namespace {

/** Incremental RRISC image builder used by genProgram. */
struct ProgGen
{
    Rng &rng;
    ProgramSample &s;
    std::vector<isa::Instruction> code;
    size_t minLen = 0; ///< forward-branch targets must stay inside

    unsigned opMax;  ///< operand values are drawn below this
    // Register conventions inside generated programs:
    //   r3 = zero register (re-seeded after every window switch)
    //   r4 = scratch for masks / addresses
    //   r5 = loop counter
    static constexpr unsigned kZero = 3;
    static constexpr unsigned kScratch = 4;
    static constexpr unsigned kCounter = 5;

    bool lintFriendly = false;
    bool allowSmc = false;
    bool allowIndirect = false;
    bool allowWide = false;
    bool allowLoops = false;
    unsigned dataBase = 128;

    explicit ProgGen(Rng &r, ProgramSample &sample)
        : rng(r), s(sample), opMax(1u << sample.operandWidth)
    {
    }

    void emit(const isa::Instruction &inst) { code.push_back(inst); }

    isa::Instruction ins(isa::Opcode op, unsigned rd = 0,
                         unsigned rs1 = 0, unsigned rs2 = 0,
                         int32_t imm = 0)
    {
        isa::Instruction i;
        i.op = op;
        i.rd = static_cast<uint8_t>(rd);
        i.rs1 = static_cast<uint8_t>(rs1);
        i.rs2 = static_cast<uint8_t>(rs2);
        i.imm = imm;
        return i;
    }

    /**
     * A source operand: usually small, occasionally too wide. Half
     * of the too-wide draws are the boundary 2^w itself, the first
     * value the operand field cannot hold.
     */
    unsigned srcReg()
    {
        if (allowWide && s.operandWidth < 6 && chance(rng, 3)) {
            if (chance(rng, 50))
                return opMax;
            return static_cast<unsigned>(rng.nextRange(opMax, 63));
        }
        return static_cast<unsigned>(rng.nextRange(0, opMax - 1));
    }

    /** A destination that preserves the zero/counter conventions. */
    unsigned dstReg()
    {
        for (;;) {
            const auto r =
                static_cast<unsigned>(rng.nextRange(0, opMax - 1));
            if (r != kZero && r != kCounter)
                return r;
        }
    }

    /** Materialize a small constant into @p reg (lint-const). */
    void emitConst(unsigned reg, int32_t value)
    {
        emit(ins(isa::Opcode::LUI, reg, 0, 0, 0));
        emit(ins(isa::Opcode::ADDI, reg, reg, 0, value));
    }

    void emitPrologue()
    {
        emitConst(1, static_cast<int32_t>(rng.nextRange(0, 1000)));
        emitConst(2, static_cast<int32_t>(rng.nextRange(0, 1000)));
        emit(ins(isa::Opcode::LUI, kZero, 0, 0, 0));
    }

    /** LUI/ADDI/LDRRM window switch; delay slots padded per flags. */
    void emitMaskSwitch()
    {
        uint32_t mask;
        if (s.mode == 2 /* Add */ && !chance(rng, 10)) {
            // Keep base + offset in range most of the time.
            const uint32_t room =
                s.numRegs > opMax ? s.numRegs - opMax : 1;
            mask = static_cast<uint32_t>(rng.next() % room);
        } else {
            mask = static_cast<uint32_t>(rng.next() % s.numRegs);
            if (chance(rng, 60)) {
                const uint32_t align =
                    1u << rng.nextRange(0, s.operandWidth);
                mask &= ~(align - 1);
            }
        }
        emitConst(kScratch, static_cast<int32_t>(mask));
        emit(ins(isa::Opcode::LDRRM, 0, kScratch, 0, 0));
        const bool pad = lintFriendly || chance(rng, 70);
        for (unsigned i = 0; i < s.delaySlots; ++i) {
            if (pad)
                emit(ins(isa::Opcode::NOP));
            else
                emitRandomAlu();
        }
        // Re-seed the conventions in the new window.
        emit(ins(isa::Opcode::LUI, kZero, 0, 0, 0));
    }

    void emitRandomAlu()
    {
        using isa::Opcode;
        if (chance(rng, 50)) {
            const auto op = pick<Opcode>(
                rng, {Opcode::ADD, Opcode::SUB, Opcode::AND,
                      Opcode::OR, Opcode::XOR, Opcode::SLL,
                      Opcode::SRL, Opcode::SRA, Opcode::SLT,
                      Opcode::SLTU});
            emit(ins(op, dstReg(), srcReg(), srcReg()));
        } else {
            const auto op = pick<Opcode>(
                rng, {Opcode::ADDI, Opcode::ANDI, Opcode::ORI,
                      Opcode::XORI, Opcode::SLTI, Opcode::SLLI,
                      Opcode::SRLI, Opcode::SRAI});
            int32_t imm;
            if (op == Opcode::SLLI || op == Opcode::SRLI ||
                op == Opcode::SRAI) {
                imm = static_cast<int32_t>(rng.nextRange(0, 31));
            } else {
                imm = static_cast<int32_t>(rng.nextRange(0, 200)) - 100;
            }
            emit(ins(op, dstReg(), srcReg(), 0, imm));
        }
    }

    void emitMemory()
    {
        const auto addr = static_cast<int32_t>(
            dataBase + rng.nextRange(0, 48));
        emitConst(kScratch, addr);
        const auto off = static_cast<int32_t>(rng.nextRange(0, 15));
        if (chance(rng, 50)) {
            emit(ins(isa::Opcode::LD, dstReg(), kScratch, 0, off));
        } else {
            emit(ins(isa::Opcode::ST, srcReg(), kScratch, 0, off));
        }
    }

    void emitSmc()
    {
        // Store into the code region; half the time store the zero
        // register (word 0 == NOP, so execution continues through a
        // *changed but valid* instruction — the superblock cache's
        // hardest case), otherwise store arbitrary register garbage.
        const auto target =
            static_cast<int32_t>(rng.nextRange(0, 60));
        emitConst(kScratch, target);
        const unsigned src = chance(rng, 50) ? kZero : srcReg();
        emit(ins(isa::Opcode::ST, src, kScratch, 0, 0));
    }

    void emitIndirect()
    {
        // LUI/ADDI an absolute target, then JMP or JALR to it. The
        // target is the instruction right after the jump.
        const auto target = static_cast<int32_t>(code.size()) + 3;
        emitConst(kScratch, target);
        if (chance(rng, 50))
            emit(ins(isa::Opcode::JMP, 0, kScratch, 0, 0));
        else
            emit(ins(isa::Opcode::JALR, dstReg(), kScratch, 0, 0));
    }

    void emitForwardBranch()
    {
        using isa::Opcode;
        const auto skip = static_cast<int32_t>(rng.nextRange(1, 3));
        if (chance(rng, 20)) {
            emit(ins(Opcode::JAL, dstReg(), 0, 0, skip + 1));
        } else {
            const auto op =
                pick<Opcode>(rng, {Opcode::BEQ, Opcode::BNE,
                                   Opcode::BLT, Opcode::BGE});
            emit(ins(op, 0, srcReg(), srcReg(), skip + 1));
        }
        minLen = std::max(minLen, code.size() + skip);
    }

    void emitLoop()
    {
        using isa::Opcode;
        const auto k = static_cast<int32_t>(rng.nextRange(1, 4));
        emit(ins(Opcode::ADDI, kCounter, kZero, 0, k));
        const auto top = static_cast<int32_t>(code.size());
        const uint64_t body = rng.nextRange(1, 2);
        for (uint64_t i = 0; i < body; ++i)
            emitRandomAlu();
        emit(ins(Opcode::ADDI, kCounter, kCounter, 0, -1));
        const auto at = static_cast<int32_t>(code.size());
        emit(ins(Opcode::BNE, 0, kCounter, kZero, top - at));
    }

    void emitMisc()
    {
        using isa::Opcode;
        switch (rng.nextRange(0, 5)) {
          case 0:
            emit(ins(Opcode::RDRRM, dstReg()));
            break;
          case 1:
            emit(ins(Opcode::MFPSW, dstReg()));
            break;
          case 2:
            emit(ins(Opcode::MTPSW, 0, srcReg()));
            break;
          case 3:
            emit(ins(Opcode::FF1, dstReg(), srcReg()));
            break;
          case 4:
            emit(ins(Opcode::FAULT, 0, 0, 0,
                     static_cast<int32_t>(rng.nextRange(0, 3))));
            break;
          default:
            if (s.banks > 1) {
                const bool bad = chance(rng, 5);
                const auto bank = static_cast<int32_t>(
                    bad ? s.banks : rng.nextRange(0, s.banks - 1));
                emit(ins(Opcode::LDRRMX, 0, srcReg(), 0, bank));
            } else {
                emit(ins(Opcode::NOP));
            }
            break;
        }
    }

    void build()
    {
        emitPrologue();
        const size_t bodyLen = 20 + rng.nextRange(0, 70);
        while (code.size() < bodyLen) {
            const uint64_t roll = rng.nextRange(1, 100);
            if (roll <= 18)
                emitMaskSwitch();
            else if (roll <= 26 && allowLoops)
                emitLoop();
            else if (roll <= 34)
                emitMemory();
            else if (roll <= 38 && allowSmc)
                emitSmc();
            else if (roll <= 42 && allowIndirect)
                emitIndirect();
            else if (roll <= 52)
                emitForwardBranch();
            else if (roll <= 62)
                emitMisc();
            else
                emitRandomAlu();
        }
        while (code.size() < minLen)
            emit(ins(isa::Opcode::NOP));
        emit(ins(isa::Opcode::HALT));

        s.words.reserve(code.size());
        for (const isa::Instruction &inst : code)
            s.words.push_back(isa::encode(inst));
        rr_assert(s.words.size() < dataBase,
                  "generated program overlaps its data region");
    }
};

ProgramSample
genProgram(Rng &rng)
{
    ProgramSample s;
    s.numRegs = 32u << rng.nextRange(0, 3); // 32..256
    s.operandWidth = static_cast<unsigned>(
        rng.nextRange(3, std::min(6u, log2Floor(s.numRegs))));
    s.banks = 1;
    if (s.operandWidth >= 3 && chance(rng, 25))
        s.banks = chance(rng, 40) ? 4 : 2;
    if (chance(rng, 70))
        s.mode = 0; // Or
    else
        s.mode = chance(rng, 50) ? 1 : 2; // Mux / Add
    s.delaySlots = static_cast<unsigned>(rng.nextRange(0, 2));
    s.memWords = pick<unsigned>(rng, {256, 1024, 4096});
    if (chance(rng, 50)) {
        s.takenBranchPenalty =
            static_cast<unsigned>(rng.nextRange(0, 3));
        s.loadUsePenalty = static_cast<unsigned>(rng.nextRange(0, 3));
        s.ldrrmPenalty = static_cast<unsigned>(rng.nextRange(0, 3));
    }
    s.maxSteps = 4000;

    ProgGen gen(rng, s);
    gen.allowSmc = chance(rng, 25);
    gen.allowIndirect = chance(rng, 15);
    gen.allowWide = s.operandWidth < 6 && chance(rng, 10);
    gen.allowLoops = chance(rng, 50);
    gen.dataBase = std::min(s.memWords / 2, 1500u);
    s.lintChecked = s.mode == 0 && s.banks == 1 && !gen.allowSmc &&
                    !gen.allowIndirect && !gen.allowWide;
    gen.lintFriendly = s.lintChecked;
    gen.build();
    return s;
}

struct CpuRun
{
    struct Rec
    {
        uint64_t cycle;
        uint32_t pc;
        uint32_t word;
        uint32_t rrm;

        bool operator==(const Rec &other) const = default;
    };

    std::vector<Rec> trace;
    std::vector<uint32_t> regs;
    std::vector<uint32_t> mem;
    uint32_t pc = 0;
    uint32_t psw = 0;
    bool halted = false;
    machine::TrapKind trap = machine::TrapKind::None;
    uint64_t cycles = 0;
    uint64_t instret = 0;
    uint64_t faults = 0;
    machine::PipelineTimingStats timing;
    bool predecodeActive = false;
};

machine::CpuConfig
cpuConfigOf(const ProgramSample &s, bool predecode)
{
    machine::CpuConfig config;
    config.geometry = geometryOf(s);
    config.ldrrmDelaySlots = s.delaySlots;
    config.memWords = s.memWords;
    config.timing.takenBranchPenalty = s.takenBranchPenalty;
    config.timing.loadUsePenalty = s.loadUsePenalty;
    config.timing.ldrrmPenalty = s.ldrrmPenalty;
    config.predecode = predecode;
    return config;
}

CpuRun
runProgram(const ProgramSample &s, bool predecode,
           Problems *reloc_problems)
{
    machine::Cpu cpu(cpuConfigOf(s, predecode));
    for (size_t i = 0; i < s.words.size(); ++i)
        cpu.mem().write(static_cast<uint32_t>(i), s.words[i]);

    CpuRun run;
    cpu.setTraceHook([&](const machine::TraceEntry &entry) {
        run.trace.push_back({entry.cycle, entry.pc,
                             isa::encode(entry.inst), entry.rrm});
        if (reloc_problems && reloc_problems->size() < 4) {
            // Oracle 2, exercised mid-execution at every mask state
            // the program reaches: the memoized table and the
            // uncached reference must agree on every operand.
            const machine::RelocationUnit &unit = cpu.relocation();
            const machine::RelocationResult *table = unit.table();
            for (unsigned op = 0; op < unit.tableSize(); ++op) {
                const machine::RelocationResult ref =
                    unit.relocate(op);
                if (table[op].physical != ref.physical ||
                    table[op].ok != ref.ok) {
                    reloc_problems->push_back(exp::strf(
                        "program: at pc=%u (cycle %llu) table() and "
                        "relocate() disagree on operand %u",
                        entry.pc,
                        static_cast<unsigned long long>(entry.cycle),
                        op));
                    break;
                }
            }
        }
    });
    cpu.run(s.maxSteps);

    const uint32_t *regs = cpu.regs().data();
    run.regs.assign(regs, regs + s.numRegs);
    const uint32_t *mem = cpu.mem().data();
    run.mem.assign(mem, mem + s.memWords);
    run.pc = cpu.pc();
    run.psw = cpu.psw();
    run.halted = cpu.halted();
    run.trap = cpu.trap();
    run.cycles = cpu.cycles();
    run.instret = cpu.instructionsRetired();
    run.faults = cpu.faultCount();
    run.timing = cpu.timingStats();
    run.predecodeActive = cpu.predecodeActive();
    return run;
}

void
compareRuns(const CpuRun &off, const CpuRun &on, Problems &problems)
{
    const auto diff = [&](const char *what, uint64_t a, uint64_t b) {
        if (a != b)
            problems.push_back(exp::strf(
                "program: %s differs with predecode off vs on: "
                "%llu vs %llu",
                what, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b)));
    };
    diff("final pc", off.pc, on.pc);
    diff("final psw", off.psw, on.psw);
    diff("halted", off.halted, on.halted);
    diff("trap kind", static_cast<uint64_t>(off.trap),
         static_cast<uint64_t>(on.trap));
    diff("cycle count", off.cycles, on.cycles);
    diff("instructions retired", off.instret, on.instret);
    diff("fault count", off.faults, on.faults);
    diff("branch stalls", off.timing.branchStalls,
         on.timing.branchStalls);
    diff("load-use stalls", off.timing.loadUseStalls,
         on.timing.loadUseStalls);
    diff("ldrrm stalls", off.timing.ldrrmStalls,
         on.timing.ldrrmStalls);
    if (off.regs != on.regs)
        problems.push_back("program: final register file differs "
                           "with predecode off vs on");
    if (off.mem != on.mem)
        problems.push_back("program: final memory differs with "
                           "predecode off vs on");
    if (off.trace.size() != on.trace.size()) {
        problems.push_back(exp::strf(
            "program: trace length differs with predecode off vs "
            "on: %zu vs %zu",
            off.trace.size(), on.trace.size()));
    } else {
        for (size_t i = 0; i < off.trace.size(); ++i) {
            if (off.trace[i] == on.trace[i])
                continue;
            problems.push_back(exp::strf(
                "program: trace diverges with predecode on at "
                "instruction %zu (pc %u vs %u, cycle %llu vs %llu)",
                i, off.trace[i].pc, on.trace[i].pc,
                static_cast<unsigned long long>(off.trace[i].cycle),
                static_cast<unsigned long long>(on.trace[i].cycle)));
            break;
        }
    }
}

/** The sample's image as an unlabelled program at base 0. */
assembler::Program
programOf(const ProgramSample &s)
{
    assembler::Program program;
    program.base = 0;
    program.words = s.words;
    program.lines.assign(s.words.size(), 0);
    return program;
}

void
checkLintClaims(const ProgramSample &s, const CpuRun &run,
                Problems &problems)
{
    const assembler::Program program = programOf(s);
    lint::Cfg cfg(program);
    lint::RrmOptions options;
    options.delaySlots = s.delaySlots;
    options.initialRrm = 0;
    options.geometry = geometryOf(s);
    const lint::RrmAnalysis rrm(cfg, options);

    lint::LintOptions lintOptions;
    lintOptions.delaySlots = s.delaySlots;
    lintOptions.geometry = geometryOf(s);
    const lint::LintResult lintResult =
        lint::lintProgram(program, lintOptions);

    // Union the per-window claims by window mask: multiple LDRRM
    // sites can open the same window.
    std::map<uint32_t, uint64_t> footprintByWindow;
    for (const lint::ThreadReport &report : lintResult.threads)
        footprintByWindow[report.rrm] |= report.footprint;

    for (const CpuRun::Rec &rec : run.trace) {
        if (problems.size() >= 4)
            return;
        const lint::AbsVal &before = rrm.rrmBefore(rec.pc);
        if (before.kind == lint::AbsVal::Bottom) {
            problems.push_back(exp::strf(
                "program/lint: pc %u executed at runtime but the "
                "lint CFG claims it unreachable",
                rec.pc));
            continue;
        }
        if (!before.isConst())
            continue; // Top: lint makes no claim here
        if (before.value != rec.rrm) {
            problems.push_back(exp::strf(
                "program/lint: pc %u — lint derives RRM=0x%x but "
                "the machine decoded under RRM=0x%x",
                rec.pc, before.value, rec.rrm));
            continue;
        }
        isa::Instruction inst;
        if (!isa::decode(rec.word, inst))
            continue;
        const lint::UseDef ud = lint::useDef(inst);
        const uint64_t touched = ud.uses | ud.defs;
        const auto it = footprintByWindow.find(rec.rrm);
        const uint64_t claimed =
            it == footprintByWindow.end() ? 0 : it->second;
        if (touched & ~claimed) {
            problems.push_back(exp::strf(
                "program/lint: pc %u under window 0x%x touches "
                "registers 0x%llx outside the lint footprint "
                "0x%llx",
                rec.pc, rec.rrm,
                static_cast<unsigned long long>(touched),
                static_cast<unsigned long long>(claimed)));
        }
    }
}

/**
 * rrlint and the machine agree on the operand width: at every pc the
 * CPU executed from its unmodified image word, lint reports
 * operand-too-wide exactly when the CPU trapped operand-too-wide
 * there. Or mode only: in Mux and Add mode an earlier operand may
 * raise a context-bounds or register-range trap first. A trap of any
 * other kind at a pc (an LDRRMX bank check, say) makes no claim.
 */
void
checkOperandWidth(const ProgramSample &s, const CpuRun &run,
                  Problems &problems)
{
    lint::LintOptions options;
    options.geometry = geometryOf(s);
    options.flowSensitive = false;
    std::set<uint32_t> flagged;
    for (const lint::Finding &f :
         lint::lintProgram(programOf(s), options).findings) {
        if (f.code == "operand-too-wide")
            flagged.insert(f.address);
    }

    for (size_t i = 0; i < run.trace.size() && problems.size() < 4;
         ++i) {
        const CpuRun::Rec &rec = run.trace[i];
        isa::Instruction linted;
        if (rec.pc >= s.words.size() ||
            !isa::decode(s.words[rec.pc], linted) ||
            isa::encode(linted) != rec.word)
            continue; // a store rewrote this word: lint saw another
        const bool trapped =
            i + 1 == run.trace.size() &&
            run.trap != machine::TrapKind::None && run.pc == rec.pc;
        const bool too_wide =
            trapped && run.trap == machine::TrapKind::OperandTooWide;
        if (trapped && !too_wide)
            continue;
        if (too_wide != (flagged.count(rec.pc) != 0)) {
            problems.push_back(exp::strf(
                "program/lint: pc %u %s but rrlint %s operand-too-wide "
                "there",
                rec.pc,
                too_wide ? "traps operand-too-wide"
                         : "executes without a trap",
                too_wide ? "reports no" : "reports"));
        }
    }
}

Problems
checkProgram(const ProgramSample &s)
{
    Problems problems;
    // The identity oracle: the undecoded reference run against the
    // superblock engine must retire the same instruction stream with
    // the same architectural state, counters, and cycle-stamped
    // trace. Oracle 2 (table-vs-relocate) rides on the superblock
    // leg.
    const CpuRun off = runProgram(s, false, nullptr);
    const CpuRun on = runProgram(s, true, &problems);
    if (!on.predecodeActive)
        problems.push_back("program: predecode did not engage");
    compareRuns(off, on, problems);
    if (s.lintChecked && problems.empty())
        checkLintClaims(s, off, problems);
    if (s.mode == 0 /* Or */ && problems.empty())
        checkOperandWidth(s, off, problems);
    return problems;
}

void
shrinkProgram(ProgramSample &s, Budget &budget)
{
    const uint32_t nop = isa::encode(isa::Instruction{});

    // Pass 1: layout-preserving chunk NOP-out (chunks that are all
    // NOPs already are skipped).
    const auto isNop = [&](uint32_t w) { return w == nop; };
    sweepChunks(budget, [&] { return s.words.size(); },
                [&](size_t at, size_t chunk) {
                    const auto first = s.words.begin() + at;
                    return !std::all_of(first, first + chunk, isNop) &&
                           tryEdit(s, budget, [&](ProgramSample &c) {
                               std::fill_n(c.words.begin() + at, chunk,
                                           nop);
                           });
                });

    // Pass 2: drop the (now mostly NOP) tail; at the smallest cut,
    // retry one word before giving up.
    while (!s.words.empty() && !budget.spent()) {
        const size_t cut = std::max<size_t>(s.words.size() / 8, 1);
        if (tryEdit(s, budget, [&](ProgramSample &c) {
                c.words.resize(c.words.size() - cut);
            }))
            continue;
        if (cut == 1 || !tryEdit(s, budget, [](ProgramSample &c) {
                c.words.pop_back();
            }))
            break;
    }

    // Pass 3: simplify timing knobs (often irrelevant to a failure).
    shrinkScalar(s, &ProgramSample::takenBranchPenalty, {0u}, budget);
    shrinkScalar(s, &ProgramSample::loadUsePenalty, {0u}, budget);
    shrinkScalar(s, &ProgramSample::ldrrmPenalty, {0u}, budget);
    shrinkScalar(s, &ProgramSample::maxSteps,
                 {uint64_t{200}, uint64_t{1000}}, budget);
}

constexpr Field<ProgramSample> kFields[] = {
    {"numRegs", &ProgramSample::numRegs, 16, 1024},
    {"operandWidth", &ProgramSample::operandWidth, 1, 6},
    {"delaySlots", &ProgramSample::delaySlots, 0, 4},
    {"banks", &ProgramSample::banks, 1, 8},
    {"mode", &ProgramSample::mode, 0, 2},
    {"memWords", &ProgramSample::memWords, 64, 1u << 20},
    {"maxSteps", &ProgramSample::maxSteps, 1, 100000000},
    {"takenBranchPenalty", &ProgramSample::takenBranchPenalty, 0, 100},
    {"loadUsePenalty", &ProgramSample::loadUsePenalty, 0, 100},
    {"ldrrmPenalty", &ProgramSample::ldrrmPenalty, 0, 100},
    {"lintChecked", &ProgramSample::lintChecked},
};

void
writeWords(const ProgramSample &s, std::string &out)
{
    for (const uint32_t word : s.words) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%08x", word);
        out += "word ";
        out += buf;
        out += '\n';
    }
}

bool
readWord(const Line &line, ProgramSample &s, std::string &)
{
    if (line.key != "word" || line.rest.size() != 8)
        return false;
    uint32_t word = 0;
    for (const char c : line.rest) {
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a') + 10;
        else
            return false;
        word = word << 4 | digit;
    }
    s.words.push_back(word);
    return true;
}

bool
validateProgram(const ProgramSample &s, std::string &error)
{
    if (!inRange(s.words.size(), 0, s.memWords, "program size", error))
        return false;
    error = geometryOf(s).error();
    return error.empty();
}

constexpr Codec<ProgramSample> kCodec{
    kFields, writeWords, readWord, validateProgram};

} // namespace

constinit const KindOps programKind =
    kindOps<genProgram, checkProgram, shrinkProgram, kCodec>("program");

} // namespace rr::fuzz
