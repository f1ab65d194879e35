/**
 * @file
 * The superblock cache must be architecturally invisible: identical
 * registers, memory, counters, traps, timing stats, and traces with
 * predecode off (the decode-per-step reference) or on (run() executes
 * cached superblocks) over every example program and the
 * configurations that exercise each relocation mode. Plus the two
 * invalidation paths that keep it sound — simulated stores
 * (self-modifying code) and host writes through Memory — and the
 * fall-back to the reference for oversized memories, including the
 * exact cap boundary.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "isa/instruction.hh"
#include "machine/cpu.hh"

namespace rr::machine {
namespace {

CpuConfig
baseConfig()
{
    CpuConfig config;
    config.numRegs = 128;
    config.operandWidth = 5;
    config.ldrrmDelaySlots = 1;
    config.memWords = 4096;
    return config;
}

void
loadAndStart(Cpu &cpu, const assembler::Program &prog)
{
    cpu.mem().loadImage(prog.base, prog.words);
    const auto entry = prog.symbols.find("entry");
    cpu.setPc(entry != prog.symbols.end() ? entry->second
                                          : prog.base);
}

assembler::Program
assembleOrDie(const std::string &source)
{
    assembler::Program prog = assembler::assemble(source);
    for (const auto &error : prog.errors)
        ADD_FAILURE() << error.str();
    EXPECT_TRUE(prog.ok());
    return prog;
}

/** Everything the cache could possibly perturb, in one snapshot. */
struct ArchState
{
    bool cacheActive = false;
    uint64_t instret = 0;
    uint64_t cycles = 0;
    uint64_t stalls = 0;
    uint32_t pc = 0;
    uint32_t psw = 0;
    bool halted = false;
    TrapKind trap = TrapKind::None;
    std::vector<uint32_t> regs;
    std::vector<uint32_t> mem;
};

/** Everything the cache could perturb in @p cpu. */
ArchState
snapshot(const Cpu &cpu)
{
    const CpuConfig &c = cpu.config();
    ArchState state;
    state.cacheActive = cpu.predecodeActive();
    state.instret = cpu.instructionsRetired();
    state.cycles = cpu.cycles();
    state.stalls = cpu.timingStats().total();
    state.pc = cpu.pc();
    state.psw = cpu.psw();
    state.halted = cpu.halted();
    state.trap = cpu.trap();
    for (unsigned r = 0; r < c.numRegs; ++r)
        state.regs.push_back(cpu.regs().read(r));
    for (size_t a = 0; a < c.memWords; ++a)
        state.mem.push_back(cpu.mem().read(a));
    return state;
}

/** Run @p prog with the cache forced on or off. */
ArchState
runWith(const CpuConfig &config, const assembler::Program &prog,
        bool predecode, uint64_t steps = 100'000)
{
    CpuConfig c = config;
    c.predecode = predecode;
    Cpu cpu(c);
    loadAndStart(cpu, prog);
    cpu.run(steps);
    return snapshot(cpu);
}

/** @p off is the uncached reference run, @p on the superblock run. */
void
expectSameState(const ArchState &off, const ArchState &on)
{
    EXPECT_FALSE(off.cacheActive);
    EXPECT_TRUE(on.cacheActive);
    EXPECT_EQ(on.instret, off.instret);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.pc, off.pc);
    EXPECT_EQ(on.halted, off.halted);
    EXPECT_EQ(on.trap, off.trap);
    EXPECT_EQ(on.psw, off.psw);
    EXPECT_EQ(on.stalls, off.stalls);
    EXPECT_EQ(on.regs, off.regs);
    EXPECT_EQ(on.mem, off.mem);
}

/**
 * Full architectural-state comparison: the uncached reference against
 * the cached superblock engine.
 */
void
expectSameArchState(const CpuConfig &config,
                    const assembler::Program &prog,
                    uint64_t steps = 100'000)
{
    expectSameState(runWith(config, prog, false, steps),
                    runWith(config, prog, true, steps));
}

std::vector<assembler::Program>
examplesCorpus()
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const auto &it :
         fs::directory_iterator(RR_EXAMPLES_ASM_DIR)) {
        if (it.path().extension() == ".s")
            files.push_back(it.path());
    }
    std::sort(files.begin(), files.end());
    EXPECT_FALSE(files.empty());

    std::vector<assembler::Program> corpus;
    for (const fs::path &path : files) {
        std::ifstream in(path);
        std::ostringstream source;
        source << in.rdbuf();
        corpus.push_back(assembleOrDie(source.str()));
    }
    return corpus;
}

TEST(Predecode, MatchesUncachedOnExamplesCorpus)
{
    for (const assembler::Program &prog : examplesCorpus())
        expectSameArchState(baseConfig(), prog);
}

TEST(Predecode, MatchesUncachedWithTimingEnabled)
{
    CpuConfig config = baseConfig();
    config.timing = PipelineTimingConfig::classicFiveStage();
    for (const assembler::Program &prog : examplesCorpus())
        expectSameArchState(config, prog);
}

// The LDRRM-heavy path: ping-pong between two contexts, with loads
// feeding dependent uses so the timing model's hazard detection runs
// on both sides of each mask switch.
constexpr const char *kSwitchProgram = R"(
.equ CTX_A, 0x20
.equ CTX_B, 0x40
entry:
    li    r1, 40
    li    r2, CTX_A
    li    r3, CTX_B
    st    r1, 0(r0)
loop:
    ldrrm r2
    nop
    li    r10, 7
    ldrrm r0
    nop
    ldrrm r3
    nop
    li    r10, 9
    ldrrm r0
    nop
    ld    r4, 0(r0)
    addi  r4, r4, -1
    st    r4, 0(r0)
    bne   r4, r0, loop
    halt
)";

TEST(Predecode, MatchesUncachedAcrossContextSwitches)
{
    const assembler::Program prog = assembleOrDie(kSwitchProgram);
    expectSameArchState(baseConfig(), prog);

    CpuConfig timed = baseConfig();
    timed.timing = PipelineTimingConfig::classicFiveStage();
    expectSameArchState(timed, prog);
}

TEST(Predecode, MatchesUncachedInMuxMode)
{
    CpuConfig config = baseConfig();
    config.relocationMode = RelocationMode::Mux;
    const assembler::Program prog = assembleOrDie(kSwitchProgram);
    expectSameArchState(config, prog);
}

TEST(Predecode, MatchesUncachedInAddMode)
{
    CpuConfig config = baseConfig();
    config.relocationMode = RelocationMode::Add;
    const assembler::Program prog = assembleOrDie(kSwitchProgram);
    expectSameArchState(config, prog);
}

TEST(Predecode, MatchesUncachedWithBankedRrm)
{
    CpuConfig config = baseConfig();
    config.rrmBanks = 2;
    // With two banks the operand's top bit selects the mask; the
    // setup just installs a window and runs ALU traffic through both
    // halves of the operand space.
    const assembler::Program prog = assembleOrDie(R"(
entry:
    li    r1, 5
    li    r2, 3
    add   r3, r1, r2
    add   r17, r1, r2
    sub   r18, r17, r2
    xor   r4, r18, r3
    halt
)");
    expectSameArchState(config, prog);
}

// Self-modifying code: the program overwrites an upcoming
// instruction word; the cached superblock holding the old word must
// be dropped at the store, not served stale.
TEST(Predecode, StoreInvalidatesCachedInstruction)
{
    // 'patch' starts as "addi r3, r0, 1"; the program first executes
    // it (so it is cached in a superblock), then overwrites it
    // with "addi r3, r0, 2" and loops back through it.
    const assembler::Program prog = assembleOrDie(R"(
entry:
    jal   r9, warm
    la    r4, patch
    la    r5, newinst
    ld    r6, 0(r5)
    st    r6, 0(r4)
    jal   r9, warm
    halt
warm:
patch:
    addi  r3, r0, 1
    jmp   r9
newinst:
    addi  r3, r0, 2
)");
    for (const bool predecode : {false, true}) {
        CpuConfig config = baseConfig();
        config.predecode = predecode;
        Cpu cpu(config);
        loadAndStart(cpu, prog);
        cpu.run(100);
        EXPECT_TRUE(cpu.halted());
        EXPECT_EQ(cpu.regs().read(3), 2u)
            << "stale predecode served (predecode=" << predecode
            << ")";
    }
    const assembler::Program again = prog;
    expectSameArchState(baseConfig(), again, 100);
}

// Host writes bypass the CPU's store path entirely (kernels patch
// completion flags this way); the write journal must still catch the
// change and drop the cached superblock.
TEST(Predecode, HostMemoryWriteInvalidatesCachedInstruction)
{
    const assembler::Program prog = assembleOrDie(R"(
entry:
    addi  r3, r0, 1
    beq   r0, r0, entry
)");
    for (const bool predecode : {false, true}) {
        SCOPED_TRACE(predecode);
        CpuConfig config = baseConfig();
        config.predecode = predecode;
        Cpu cpu(config);
        loadAndStart(cpu, prog);

        // Let the two-instruction loop get cached.
        cpu.run(6);
        EXPECT_EQ(cpu.regs().read(3), 1u);

        // Patch the first instruction to "addi r3, r0, 3" from the
        // host.
        isa::Instruction patched;
        ASSERT_TRUE(isa::decode(cpu.mem().read(0), patched));
        patched.imm = 3;
        cpu.mem().write(0, isa::encode(patched));

        cpu.run(2);
        EXPECT_EQ(cpu.regs().read(3), 3u)
            << "cached block missed a host write";
        if (predecode) {
            EXPECT_GT(cpu.superblockFlushes(), 0u);
        }
    }
}

// Memories past the predecode cap silently fall back to the uncached
// reference rather than allocating a giant block index; run() then
// never builds a superblock.
TEST(Predecode, OversizedMemoryFallsBackToUncached)
{
    const assembler::Program prog = assembleOrDie(R"(
entry:
    addi  r3, r0, 1
    halt
)");
    CpuConfig config = baseConfig();
    config.predecode = true;
    config.memWords = (size_t{1} << 22) + 1;
    Cpu cpu(config);
    EXPECT_FALSE(cpu.predecodeActive());
    loadAndStart(cpu, prog);
    cpu.run(100);
    EXPECT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.superblocksBuilt(), 0u);

    config.memWords = 4096;
    Cpu small(config);
    EXPECT_TRUE(small.predecodeActive());
}

// The fallback boundary itself: a memory of exactly kPredecodeMaxWords
// is still shadowed (the cap is inclusive), one word more is not, and
// a self-modifying program sitting right against the cap behaves
// identically on both sides of it — the store-invalidation semantics
// must not depend on which path the memory size selected.
TEST(Predecode, FallbackBoundaryKeepsStoreInvalidationSemantics)
{
    constexpr size_t kCap = Cpu::kPredecodeMaxWords;
    // Same shape as StoreInvalidatesCachedInstruction, but placed in
    // the last few words below the cap so the patched instruction is
    // the highest cacheable address. la cannot encode these addresses
    // (their low 12 bits exceed the signed ORI range), so patch and
    // newinst are reached by backing off from the cap itself:
    // lui 1024 == 1 << 22.
    const assembler::Program prog = assembleOrDie(R"(
.org 4194292
entry:
    jal   r9, warm
    lui   r4, 1024
    addi  r4, r4, -3
    lui   r5, 1024
    addi  r5, r5, -1
    ld    r6, 0(r5)
    st    r6, 0(r4)
    jal   r9, warm
    halt
warm:
patch:
    addi  r3, r0, 1
    jmp   r9
newinst:
    addi  r3, r0, 2
)");
    ASSERT_EQ(prog.base, 4194292u);
    ASSERT_EQ(prog.base + prog.words.size(), kCap);
    const auto patch = prog.symbols.find("patch");
    const auto newinst = prog.symbols.find("newinst");
    ASSERT_NE(patch, prog.symbols.end());
    ASSERT_NE(newinst, prog.symbols.end());
    ASSERT_EQ(patch->second, kCap - 3);
    ASSERT_EQ(newinst->second, kCap - 1);

    uint64_t cachedInstret = 0;
    uint64_t cachedCycles = 0;
    for (const size_t memWords : {kCap, kCap + 1}) {
        SCOPED_TRACE(memWords);
        CpuConfig config = baseConfig();
        config.predecode = true;
        config.memWords = memWords;
        Cpu cpu(config);
        // Inclusive cap: exactly kPredecodeMaxWords still caches,
        // one more word falls back to decode-per-step.
        EXPECT_EQ(cpu.predecodeActive(), memWords <= kCap);
        loadAndStart(cpu, prog);
        cpu.run(100);
        EXPECT_TRUE(cpu.halted());
        EXPECT_EQ(cpu.regs().read(3), 2u)
            << "stale instruction served near the predecode cap";
        if (memWords == kCap) {
            cachedInstret = cpu.instructionsRetired();
            cachedCycles = cpu.cycles();
        } else {
            EXPECT_EQ(cpu.instructionsRetired(), cachedInstret);
            EXPECT_EQ(cpu.cycles(), cachedCycles);
        }
    }
}

// ---- trace hooks that act on the machine ------------------------------
//
// A trace hook runs before each instruction executes and may write
// memory or move a mask (the kernels' hooks deliver completions by
// writing flag words). step() fetches the next instruction after the
// hook and relocates the current one under the mask the hook left, so
// superblocks must too: a hook's write to cached code ends the block
// after the current instruction, and a hook's mask change refreshes
// the relocation table before the current instruction reads operands.

/** A hooked run: the final state and every TraceEntry, rendered. */
struct HookedRun
{
    ArchState state;
    std::vector<std::string> trace;
};

using MachineHook = std::function<void(Cpu &, const TraceEntry &)>;

HookedRun
runHooked(const CpuConfig &config, const assembler::Program &prog,
          bool predecode, const MachineHook &hook)
{
    CpuConfig c = config;
    c.predecode = predecode;
    Cpu cpu(c);
    loadAndStart(cpu, prog);
    HookedRun run;
    cpu.setTraceHook([&](const TraceEntry &entry) {
        std::ostringstream line;
        line << entry.cycle << ' ' << entry.pc << ' ' << entry.rrm << ' '
             << isa::disassemble(entry.inst);
        run.trace.push_back(line.str());
        hook(cpu, entry);
    });
    cpu.run(100'000);
    run.state = snapshot(cpu);
    return run;
}

/**
 * The hooked run with predecode off and on: registers, memory, pc,
 * counters and the trace stream must all agree. @return the
 * reference run.
 */
HookedRun
expectSameHookedRun(const CpuConfig &config,
                    const assembler::Program &prog,
                    const MachineHook &hook)
{
    const HookedRun off = runHooked(config, prog, false, hook);
    const HookedRun on = runHooked(config, prog, true, hook);
    EXPECT_TRUE(off.state.halted);
    expectSameState(off.state, on.state);
    EXPECT_EQ(on.trace, off.trace);
    return off;
}

TEST(PredecodeHook, HookWriteToCachedCodeIsFetchedNext)
{
    const assembler::Program prog = assembleOrDie(R"(
entry:
    addi  r1, r0, 0
    addi  r1, r1, 1
    addi  r1, r1, 1
    halt
)");
    const uint32_t entry = prog.addressOf("entry");
    const uint32_t patched =
        isa::encode(isa::makeI(isa::Opcode::ADDI, 1, 1, 100));
    const HookedRun ref = expectSameHookedRun(
        baseConfig(), prog, [&](Cpu &cpu, const TraceEntry &e) {
            if (e.pc == entry + 1)
                cpu.mem().write(entry + 2, patched);
        });
    EXPECT_EQ(ref.state.regs[1], 101u);
}

TEST(PredecodeHook, HookMaskChangeRelocatesCurrentInstruction)
{
    const assembler::Program prog = assembleOrDie(R"(
entry:
    addi  r1, r0, 5
    addi  r1, r0, 7
    addi  r2, r0, 9
    halt
)");
    const uint32_t entry = prog.addressOf("entry");
    const HookedRun ref = expectSameHookedRun(
        baseConfig(), prog, [&](Cpu &cpu, const TraceEntry &e) {
            if (e.pc == entry + 1)
                cpu.setRrmImmediate(32);
        });
    EXPECT_EQ(ref.state.regs[1], 5u);
    EXPECT_EQ(ref.state.regs[33], 7u);
    EXPECT_EQ(ref.state.regs[34], 9u);
}

// Code near the top of a 64K-word memory: the block maps grow to
// cover it, and both invalidation paths still see writes there — the
// program's own store over cached code, and a hook's host write over
// the next instruction of a cached block.
TEST(PredecodeHook, TopOfMemoryCodeSeesStoresAndHookWrites)
{
    const assembler::Program prog = assembleOrDie(R"(
.org 65470
entry:
    jal   r9, warm
    la    r4, patch
    la    r5, newinst
    ld    r6, 0(r5)
    st    r6, 0(r4)
    jal   r9, warm
poke:
    addi  r7, r0, 1
    addi  r7, r7, 1
    halt
warm:
patch:
    addi  r3, r0, 1
    jmp   r9
newinst:
    addi  r3, r0, 2
)");
    CpuConfig config = baseConfig();
    config.memWords = size_t{1} << 16;
    ASSERT_GT(prog.addressOf("newinst"), 65480u);
    const uint32_t poke = prog.addressOf("poke");
    const uint32_t patched =
        isa::encode(isa::makeI(isa::Opcode::ADDI, 7, 7, 40));
    const HookedRun ref = expectSameHookedRun(
        config, prog, [&](Cpu &cpu, const TraceEntry &e) {
            if (e.pc == poke)
                cpu.mem().write(poke + 1, patched);
        });
    EXPECT_EQ(ref.state.regs[3], 2u);
    EXPECT_EQ(ref.state.regs[7], 41u);
}

TEST(Predecode, ConfigOffDisablesCache)
{
    CpuConfig config = baseConfig();
    config.predecode = false;
    Cpu cpu(config);
    EXPECT_FALSE(cpu.predecodeActive());
}

// Traces must be identical too: the hook sees the same decoded
// instruction, mask, cycle, and disassembly with the cache on or off,
// including from inside superblocks.
TEST(Predecode, TraceStreamIdenticalInAllModes)
{
    const assembler::Program prog = assembleOrDie(kSwitchProgram);
    const auto capture = [&](bool predecode) {
        CpuConfig config = baseConfig();
        config.predecode = predecode;
        Cpu cpu(config);
        std::ostringstream out;
        cpu.setTraceHook([&out](const TraceEntry &entry) {
            out << entry.cycle << ' ' << entry.pc << ' ' << entry.rrm
                << ' ' << isa::disassemble(entry.inst) << '\n';
        });
        loadAndStart(cpu, prog);
        cpu.run(100'000);
        return out.str();
    };
    const std::string off = capture(false);
    EXPECT_FALSE(off.empty());
    EXPECT_EQ(capture(true), off);
}

} // namespace
} // namespace rr::machine
