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

/**
 * Full architectural-state comparison: the uncached reference against
 * the cached superblock engine.
 */
void
expectSameArchState(const CpuConfig &config,
                    const assembler::Program &prog,
                    uint64_t steps = 100'000)
{
    const ArchState off = runWith(config, prog, false, steps);
    EXPECT_FALSE(off.cacheActive);

    const ArchState on = runWith(config, prog, true, steps);
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
                << ' ' << entry.text << '\n';
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
