/**
 * @file
 * Superblock dispatch (docs/PERF.md): the run() fast path must be
 * architecturally invisible at *every* observation point, not just at
 * halt. Each test compares the decode-per-step reference (predecode
 * off) against the superblock engine (predecode on) and pins a
 * property the corpus-level identity tests cannot see directly:
 *
 *  - a step budget that expires anywhere inside a block retires
 *    exactly the reference's instruction prefix, for every possible
 *    split point;
 *  - step() and run() can be interleaved freely, including a store
 *    made by step() into code run() has cached;
 *  - host writes demote superblocks to unverified and the next
 *    lookup re-proves them against memory (cache kept) or flushes
 *    (code actually changed), visible through the diagnostic
 *    counters;
 *  - a store into a chained hot loop (self-modifying code) exits the
 *    block engine and rebuilds, never running stale code;
 *  - the superblock cache is derived state: a checkpoint restore
 *    drops it and the restored CPU rebuilds and finishes identically;
 *  - the 64-entry write journal's boundary is exact: the 64th host
 *    write is still scanned precisely, the 65th degrades to all-dirty
 *    (reverify everything), and neither path ever runs stale code;
 *  - a trap raised by either of two adjacent instructions in a block
 *    retires exactly the reference's instruction prefix, and FAULT
 *    inside a chained hot loop flushes the pending retirement
 *    counters before the hook observes the CPU — trace bytes and
 *    in-hook checkpoints are identical on both engines.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "ckpt/io.hh"
#include "machine/cpu.hh"

namespace rr::machine {
namespace {

CpuConfig
configWith(bool predecode)
{
    CpuConfig config;
    config.geometry.numRegs = 128;
    config.geometry.operandWidth = 5;
    config.ldrrmDelaySlots = 1;
    config.memWords = 4096;
    config.predecode = predecode;
    return config;
}

/** The two engines: the reference first, then superblocks. */
constexpr bool kLegs[] = {false, true};

const char *
legName(bool predecode)
{
    return predecode ? "superblocks" : "reference";
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

void
loadAndStart(Cpu &cpu, const assembler::Program &prog)
{
    cpu.mem().loadImage(prog.base, prog.words);
    const auto entry = prog.symbols.find("entry");
    cpu.setPc(entry != prog.symbols.end() ? entry->second
                                          : prog.base);
}

/** The externally observable execution state, counters included. */
struct Observation
{
    uint64_t instret = 0;
    uint64_t cycles = 0;
    uint64_t stalls = 0;
    uint32_t pc = 0;
    uint32_t psw = 0;
    bool halted = false;
    TrapKind trap = TrapKind::None;
    std::vector<uint32_t> regs;
    std::vector<uint32_t> mem;

    bool operator==(const Observation &other) const = default;
};

Observation
observe(const Cpu &cpu)
{
    Observation obs;
    obs.instret = cpu.instructionsRetired();
    obs.cycles = cpu.cycles();
    obs.stalls = cpu.timingStats().total();
    obs.pc = cpu.pc();
    obs.psw = cpu.psw();
    obs.halted = cpu.halted();
    obs.trap = cpu.trap();
    const uint32_t *regs = cpu.regs().data();
    obs.regs.assign(regs, regs + 128);
    const uint32_t *mem = cpu.mem().data();
    obs.mem.assign(mem, mem + 4096);
    return obs;
}

// A chained hot loop: li expands to LUI+ORI, the loop body is one
// block whose taken branch chains back into itself.
constexpr const char *kHotLoop = R"(
entry:
    li    r1, 25
loop:
    addi  r2, r2, 3
    addi  r1, r1, -1
    bne   r1, r0, loop
    halt
)";

// A step budget expiring anywhere — mid-block, on a taken branch, or
// inside a chained run — must leave the same architectural state and
// counters as the reference with the same budget. Sweep every prefix
// length of the whole program.
TEST(Dispatch, BudgetSplitsAtEveryPrefixExactly)
{
    const assembler::Program prog = assembleOrDie(kHotLoop);

    // Total retired instructions at halt: li(2) + 25*3 + halt.
    constexpr uint64_t kTotal = 2 + 25 * 3 + 1;
    for (uint64_t budget = 1; budget <= kTotal + 1; ++budget) {
        Observation want;
        bool first = true;
        for (const bool predecode : kLegs) {
            Cpu cpu(configWith(predecode));
            loadAndStart(cpu, prog);
            cpu.run(budget);
            const Observation got = observe(cpu);
            if (first) {
                want = got;
                first = false;
                continue;
            }
            EXPECT_EQ(got, want)
                << "budget " << budget << ", "
                << legName(predecode);
        }
    }
}

// Self-modifying code whose patching store sits outside the patched
// block: 'warm' runs once (so run() caches it), then 'patcher'
// overwrites its first word with "addi r3, r0, 2" and calls it again.
constexpr const char *kPatchWarm = R"(
entry:
    jal   r9, warm
    la    r4, patch
    la    r5, newinst
    ld    r6, 0(r5)
patcher:
    st    r6, 0(r4)
    jal   r9, warm
    halt
warm:
patch:
    addi  r3, r0, 1
    jmp   r9
newinst:
    addi  r3, r0, 2
)";

// step() must observe and produce exactly the state the block engine
// left behind, at any interleaving. That includes a store made by
// step() into code run() has cached: it reaches the block cache only
// through Memory's write journal, and the next run() must execute the
// new word.
TEST(Dispatch, StepAndRunInterleaveFreely)
{
    const assembler::Program prog = assembleOrDie(kHotLoop);

    Observation want;
    bool first = true;
    for (const bool predecode : kLegs) {
        Cpu cpu(configWith(predecode));
        loadAndStart(cpu, prog);
        for (int i = 0; i < 3; ++i)
            cpu.step();
        cpu.run(10);
        for (int i = 0; i < 5; ++i)
            cpu.step();
        cpu.run(100'000);
        const Observation got = observe(cpu);
        if (first) {
            want = got;
            first = false;
            continue;
        }
        EXPECT_EQ(got, want) << legName(predecode);
    }

    const assembler::Program smc = assembleOrDie(kPatchWarm);
    first = true;
    for (const bool predecode : kLegs) {
        Cpu cpu(configWith(predecode));
        loadAndStart(cpu, smc);
        // jal, addi, jmp, la (2 words), la (2 words), ld: stop on the
        // store with 'warm' cached.
        cpu.run(8);
        ASSERT_EQ(cpu.pc(), smc.addressOf("patcher"))
            << legName(predecode);
        EXPECT_EQ(cpu.regs().read(3), 1u) << legName(predecode);
        const uint64_t flushes = cpu.superblockFlushes();
        ASSERT_TRUE(cpu.step()) << legName(predecode);
        cpu.run(100'000);
        ASSERT_TRUE(cpu.halted()) << legName(predecode);
        EXPECT_EQ(cpu.regs().read(3), 2u)
            << "stale block served after a step() store, "
            << legName(predecode);
        if (predecode) {
            EXPECT_GT(cpu.superblockFlushes(), flushes);
        }
        const Observation got = observe(cpu);
        if (first) {
            want = got;
            first = false;
            continue;
        }
        EXPECT_EQ(got, want) << legName(predecode);
    }
}

// A host write that does not change the covered words demotes every
// block to unverified; the next lookup re-proves each against memory
// and keeps it — no flush, no rebuild.
TEST(Dispatch, HostWriteWithUnchangedCodeReverifiesBlocks)
{
    const assembler::Program prog = assembleOrDie(kHotLoop);
    Cpu cpu(configWith(true));
    ASSERT_TRUE(cpu.predecodeActive());
    loadAndStart(cpu, prog);
    cpu.run(100'000);
    ASSERT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.regs().read(2), 75u);

    const uint64_t built = cpu.superblocksBuilt();
    const uint64_t flushes = cpu.superblockFlushes();
    ASSERT_GT(built, 0u);
    EXPECT_EQ(cpu.superblocksReverified(), 0u);

    // Rewrite a covered instruction word with its own value: the
    // journal records the touch, but the code is unchanged.
    const auto entry = prog.symbols.find("entry");
    ASSERT_NE(entry, prog.symbols.end());
    cpu.mem().write(entry->second, cpu.mem().read(entry->second));

    cpu.setPc(entry->second);
    cpu.resume();
    cpu.run(100'000);
    ASSERT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.regs().read(2), 150u);

    EXPECT_GT(cpu.superblocksReverified(), 0u);
    EXPECT_EQ(cpu.superblockFlushes(), flushes);
    EXPECT_EQ(cpu.superblocksBuilt(), built);
}

// A host write that *does* change covered code fails re-verification:
// the cache flushes and rebuilds, and the new code runs.
TEST(Dispatch, HostWriteWithChangedCodeFlushesAndRebuilds)
{
    const assembler::Program prog = assembleOrDie(kHotLoop);
    // The replacement body: "addi r2, r2, 5" instead of "+3".
    const assembler::Program patched = assembleOrDie(R"(
entry:
    addi  r2, r2, 5
)");

    Cpu cpu(configWith(true));
    loadAndStart(cpu, prog);
    cpu.run(100'000);
    ASSERT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.regs().read(2), 75u);

    const uint64_t built = cpu.superblocksBuilt();
    const uint64_t flushes = cpu.superblockFlushes();

    const auto loop = prog.symbols.find("loop");
    ASSERT_NE(loop, prog.symbols.end());
    cpu.mem().write(loop->second, patched.words.at(0));

    const auto entry = prog.symbols.find("entry");
    ASSERT_NE(entry, prog.symbols.end());
    cpu.setPc(entry->second);
    cpu.resume();
    cpu.run(100'000);
    ASSERT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.regs().read(2), 75u + 25 * 5);

    EXPECT_GT(cpu.superblockFlushes(), flushes);
    EXPECT_GT(cpu.superblocksBuilt(), built);
}

// Self-modifying code inside a hot (chained) loop: the store lands in
// a covered word every iteration, so the block engine must exit,
// rebuild, and pick up the patched instruction, exactly as the
// reference does.
constexpr const char *kSmcLoop = R"(
entry:
    li    r1, 6
    la    r4, patch
    la    r5, newinst
    ld    r6, 0(r5)
loop:
patch:
    addi  r2, r2, 1
    st    r6, 0(r4)
    addi  r1, r1, -1
    bne   r1, r0, loop
    halt
newinst:
    addi  r2, r2, 4
)";

TEST(Dispatch, StoreIntoChainedLoopNeverRunsStaleCode)
{
    const assembler::Program prog = assembleOrDie(kSmcLoop);

    Observation want;
    bool first = true;
    for (const bool predecode : kLegs) {
        Cpu cpu(configWith(predecode));
        loadAndStart(cpu, prog);
        cpu.run(100'000);
        ASSERT_TRUE(cpu.halted()) << legName(predecode);
        // Iteration 1 adds 1 and patches; iterations 2..6 add 4.
        EXPECT_EQ(cpu.regs().read(2), 1u + 5 * 4)
            << legName(predecode);
        const Observation got = observe(cpu);
        if (first) {
            want = got;
            first = false;
            continue;
        }
        EXPECT_EQ(got, want) << legName(predecode);
    }
}

// The superblock cache is derived state: it is never serialized, a
// restore drops it, and the restored CPU rebuilds it on demand and
// finishes byte-identically to the uninterrupted run.
TEST(Dispatch, CheckpointRestoreRebuildsDerivedBlocks)
{
    const assembler::Program prog = assembleOrDie(kHotLoop);

    // Uninterrupted superblock run, as reference.
    Cpu whole(configWith(true));
    loadAndStart(whole, prog);
    whole.run(100'000);
    ASSERT_TRUE(whole.halted());
    const Observation want = observe(whole);

    // Pause mid-loop (budget 40 lands between the decrement and its
    // branch), checkpoint, restore into a fresh CPU, finish there.
    Cpu source(configWith(true));
    loadAndStart(source, prog);
    source.run(40);
    ASSERT_FALSE(source.halted());
    ckpt::Writer writer;
    source.saveState(writer);
    const std::vector<uint8_t> doc = writer.seal();

    Cpu target(configWith(true));
    target.restoreState(ckpt::Reader(doc));
    EXPECT_EQ(target.superblocksBuilt(), 0u)
        << "restore must drop derived superblocks";
    target.run(100'000);
    ASSERT_TRUE(target.halted());
    EXPECT_GT(target.superblocksBuilt(), 0u);
    EXPECT_EQ(observe(target), want);

    // Restoring into a reference CPU gives the same result: the
    // predecode switch is not part of the checkpointed state.
    Cpu plain(configWith(false));
    plain.restoreState(ckpt::Reader(doc));
    plain.run(100'000);
    EXPECT_EQ(observe(plain), want);
}

// ---- write-journal overflow boundary --------------------------------
//
// Memory journals host-visible writes in a 64-entry log; on overflow
// it degrades to an all-dirty flag. The boundary must be exact: 64
// writes still scan precisely (blocks stay verified when none is
// covered), the 65th demotes everything to unverified (reverify), and
// a code patch is caught whether it lands in the journal (covered
// scan -> flush) or is dropped by the overflow (all-dirty -> flush).

/** One halt -> host-write -> resume sequence, counters around it. */
struct JournalRun
{
    Observation obs;          ///< state after the resumed run
    uint64_t built = 0;       ///< superblocks built by the resume
    uint64_t flushes = 0;     ///< cache flushes during the resume
    uint64_t reverified = 0;  ///< blocks re-proved during the resume
    size_t journalDepth = 0;  ///< journal entries before the resume
    bool overflowed = false;  ///< overflow flag before the resume
};

JournalRun
runJournalScenario(bool predecode, size_t data_writes,
                   bool patch_code)
{
    const assembler::Program prog = assembleOrDie(kHotLoop);
    Cpu cpu(configWith(predecode));
    loadAndStart(cpu, prog);
    cpu.run(100'000);
    EXPECT_TRUE(cpu.halted()) << legName(predecode);
    EXPECT_EQ(cpu.regs().read(2), 75u) << legName(predecode);

    // The block engine consumes the journal at block boundaries; a
    // halted CPU must not sit on stale entries. The reference has no
    // consumer, so start its count from a clean journal instead.
    if (!predecode) {
        cpu.mem().clearWriteLog();
    } else {
        EXPECT_TRUE(cpu.mem().writeLog().empty())
            << legName(predecode);
        EXPECT_FALSE(cpu.mem().writeLogOverflowed())
            << legName(predecode);
    }

    // Host writes into data words no superblock covers.
    constexpr uint32_t kDataBase = 0x800;
    for (size_t i = 0; i < data_writes; ++i)
        cpu.mem().write(kDataBase + static_cast<uint32_t>(i),
                        0xD000 + static_cast<uint32_t>(i));
    if (patch_code) {
        // "addi r2, r2, 5" replaces the "+3" at the loop head.
        const assembler::Program patched = assembleOrDie(R"(
entry:
    addi  r2, r2, 5
)");
        const auto loop = prog.symbols.find("loop");
        EXPECT_NE(loop, prog.symbols.end());
        cpu.mem().write(loop->second, patched.words.at(0));
    }

    JournalRun out;
    out.journalDepth = cpu.mem().writeLog().size();
    out.overflowed = cpu.mem().writeLogOverflowed();

    const uint64_t built = cpu.superblocksBuilt();
    const uint64_t flushes = cpu.superblockFlushes();
    const uint64_t reverified = cpu.superblocksReverified();

    const auto entry = prog.symbols.find("entry");
    EXPECT_NE(entry, prog.symbols.end());
    cpu.setPc(entry->second);
    cpu.resume();
    cpu.run(100'000);
    EXPECT_TRUE(cpu.halted()) << legName(predecode);

    out.obs = observe(cpu);
    out.built = cpu.superblocksBuilt() - built;
    out.flushes = cpu.superblockFlushes() - flushes;
    out.reverified = cpu.superblocksReverified() - reverified;
    return out;
}

// 64 writes exactly fill the journal without overflowing: the covered
// scan still runs precisely, sees only data words, and leaves every
// block verified — no demotion, no reverify, no flush.
TEST(Dispatch, JournalSixtyFourthWriteStillScansPrecisely)
{
    const JournalRun ref = runJournalScenario(false, 64, false);
    const JournalRun got = runJournalScenario(true, 64, false);
    EXPECT_EQ(got.journalDepth, Memory::kWriteLogCap);
    EXPECT_FALSE(got.overflowed);
    EXPECT_EQ(got.reverified, 0u);
    EXPECT_EQ(got.flushes, 0u);
    EXPECT_EQ(got.built, 0u);
    EXPECT_EQ(got.obs, ref.obs);
}

// The 65th write degrades the journal to all-dirty: every block is
// demoted and must re-prove itself against memory. The code did not
// change, so each re-proof succeeds — reverified grows, nothing
// flushes or rebuilds.
TEST(Dispatch, JournalSixtyFifthWriteDegradesToAllDirty)
{
    const JournalRun ref = runJournalScenario(false, 65, false);
    const JournalRun got = runJournalScenario(true, 65, false);
    EXPECT_TRUE(got.overflowed);
    EXPECT_GT(got.reverified, 0u);
    EXPECT_EQ(got.flushes, 0u);
    EXPECT_EQ(got.built, 0u);
    EXPECT_EQ(got.obs, ref.obs);
}

// A code patch recorded as the journal's 64th (last) entry: full but
// not overflowed, the precise scan must still see the covered word,
// fail re-verification, and flush + rebuild with the patched code.
TEST(Dispatch, JournalFullButNotOverflowedCatchesCodePatch)
{
    const JournalRun ref = runJournalScenario(false, 63, true);
    const JournalRun got = runJournalScenario(true, 63, true);
    EXPECT_EQ(got.journalDepth, Memory::kWriteLogCap);
    EXPECT_FALSE(got.overflowed);
    EXPECT_GT(got.flushes, 0u);
    EXPECT_GT(got.built, 0u);
    EXPECT_EQ(got.obs.regs[2], 75u + 25 * 5);
    EXPECT_EQ(got.obs, ref.obs);
}

// A code patch as the 65th write: the journal dropped its address,
// but the overflow flag demotes everything, the patched block fails
// its re-proof, and the new code runs — stale code is impossible on
// either side of the boundary.
TEST(Dispatch, JournalOverflowNeverRunsStaleCode)
{
    const JournalRun ref = runJournalScenario(false, 64, true);
    const JournalRun got = runJournalScenario(true, 64, true);
    EXPECT_TRUE(got.overflowed);
    EXPECT_GT(got.flushes, 0u);
    EXPECT_EQ(got.obs.regs[2], 75u + 25 * 5);
    EXPECT_EQ(got.obs, ref.obs);
}

// ---- traps and faults inside blocks ----------------------------------

// One block: li (LUI+ORI), a load, the addi that consumes its result,
// halt. The load address 5000 is past memWords = 4096, so the *first*
// of the ld/addi pair traps MemOutOfRange.
constexpr const char *kLdPairTrap = R"(
entry:
    li    r4, 5000
    ld    r5, 0(r4)
    addi  r5, r5, 1
    halt
)";

TEST(Dispatch, TrapOnLoadMidBlockMatchesReference)
{
    const assembler::Program prog = assembleOrDie(kLdPairTrap);

    for (uint64_t budget = 1; budget <= 4; ++budget) {
        Observation want;
        bool first = true;
        for (const bool predecode : kLegs) {
            Cpu cpu(configWith(predecode));
            loadAndStart(cpu, prog);
            cpu.run(budget);
            const Observation got = observe(cpu);
            if (first) {
                want = got;
                first = false;
                continue;
            }
            EXPECT_EQ(got, want)
                << "budget " << budget << ", "
                << legName(predecode);
        }
    }

    // Absolute semantics under superblocks: the li pair retires, the
    // ld traps before retiring, the pc names the ld itself.
    Cpu cpu(configWith(true));
    loadAndStart(cpu, prog);
    cpu.run(100);
    EXPECT_EQ(cpu.trap(), TrapKind::MemOutOfRange);
    EXPECT_EQ(cpu.instructionsRetired(), 2u);
    EXPECT_EQ(cpu.pc(), 2u);
}

// Two ADDIs in one block. r40 is encodable (6-bit field) but past the
// configured operand width of 5, so the *second* traps
// OperandTooWide after the first already executed: exactly the first
// half must retire.
constexpr const char *kMidPairTrap = R"(
entry:
    addi  r2, r2, 3
    addi  r3, r40, 1
    halt
)";

TEST(Dispatch, TrapOnSecondHalfRetiresExactlyTheFirstHalf)
{
    const assembler::Program prog = assembleOrDie(kMidPairTrap);

    for (uint64_t budget = 1; budget <= 3; ++budget) {
        Observation want;
        bool first = true;
        for (const bool predecode : kLegs) {
            Cpu cpu(configWith(predecode));
            loadAndStart(cpu, prog);
            cpu.run(budget);
            const Observation got = observe(cpu);
            if (first) {
                want = got;
                first = false;
                continue;
            }
            EXPECT_EQ(got, want)
                << "budget " << budget << ", "
                << legName(predecode);
        }
    }

    Cpu cpu(configWith(true));
    loadAndStart(cpu, prog);
    cpu.run(100);
    EXPECT_EQ(cpu.trap(), TrapKind::OperandTooWide);
    EXPECT_EQ(cpu.instructionsRetired(), 1u);
    EXPECT_EQ(cpu.pc(), 1u);
    EXPECT_EQ(cpu.regs().read(2), 3u);
}

// A checkpoint taken at a mid-pair trap point by the superblock
// engine must be byte-identical to one written by the reference at
// the same point, and restore into either engine with the full trap
// state intact.
TEST(Dispatch, CheckpointAtMidPairTrapIsModeInvariant)
{
    const assembler::Program prog = assembleOrDie(kMidPairTrap);

    Cpu ref(configWith(false));
    loadAndStart(ref, prog);
    ref.run(100);
    const Observation want = observe(ref);
    EXPECT_EQ(want.trap, TrapKind::OperandTooWide);

    Cpu blocks(configWith(true));
    loadAndStart(blocks, prog);
    blocks.run(100);
    EXPECT_EQ(observe(blocks), want);

    ckpt::Writer blocksWriter;
    blocks.saveState(blocksWriter);
    const std::vector<uint8_t> doc = blocksWriter.seal();

    ckpt::Writer refWriter;
    ref.saveState(refWriter);
    EXPECT_EQ(doc, refWriter.seal())
        << "trap-point checkpoints must not depend on the engine";

    for (const bool predecode : kLegs) {
        Cpu target(configWith(predecode));
        target.restoreState(ckpt::Reader(doc));
        EXPECT_EQ(observe(target), want) << legName(predecode);
    }
}

// FAULT in a chained hot loop: it ends the block every iteration, so
// the handler's counter flush before the hook is on the hot path.
constexpr const char *kFaultLoop = R"(
entry:
    li    r1, 6
loop:
    addi  r2, r2, 3
    addi  r3, r3, 1
    fault 2
    addi  r1, r1, -1
    bne   r1, r0, loop
    halt
)";

// Retired at halt: li(2) + 6 * (pair(2) + fault + pair(2)) + halt.
constexpr uint64_t kFaultLoopTotal = 2 + 6 * 5 + 1;

// The hook observes flushed counters, trace bytes agree on both
// engines, and a budget expiring anywhere — including right at a
// FAULT or just after the hook's own host write — splits identically.
TEST(Dispatch, FaultInsideChainedLoopFlushesCountersBeforeHook)
{
    const assembler::Program prog = assembleOrDie(kFaultLoop);

    Observation want;
    std::vector<std::string> wantTrace;
    std::vector<uint64_t> wantAtHook;
    bool first = true;
    for (const bool predecode : kLegs) {
        Cpu cpu(configWith(predecode));
        std::vector<std::string> trace;
        cpu.setTraceHook([&trace](const TraceEntry &e) {
            std::ostringstream os;
            os << e.cycle << ':' << e.pc << ':' << e.rrm << ':'
               << isa::disassemble(e.inst);
            trace.push_back(os.str());
        });
        std::vector<uint64_t> atHook;
        cpu.setFaultHook([&atHook](Cpu &c, uint32_t fault_class) {
            EXPECT_EQ(fault_class, 2u);
            // The retirement counter must already include every
            // instruction before the FAULT — fast-mode counts
            // flushed.
            atHook.push_back(c.instructionsRetired());
            // A host write from inside the hook: journal interplay.
            c.mem().write(0x700, static_cast<uint32_t>(atHook.size()));
        });
        loadAndStart(cpu, prog);
        cpu.run(100'000);
        EXPECT_TRUE(cpu.halted()) << legName(predecode);
        EXPECT_EQ(cpu.faultCount(), 6u) << legName(predecode);
        const Observation got = observe(cpu);
        if (first) {
            want = got;
            wantTrace = trace;
            wantAtHook = atHook;
            first = false;
            continue;
        }
        EXPECT_EQ(got, want) << legName(predecode);
        EXPECT_EQ(trace, wantTrace) << legName(predecode);
        EXPECT_EQ(atHook, wantAtHook) << legName(predecode);
    }
    ASSERT_EQ(wantAtHook.size(), 6u);

    // Budget sweep with the host-writing hook still in place.
    for (uint64_t budget = 1; budget <= kFaultLoopTotal + 1;
         ++budget) {
        Observation bwant;
        bool bfirst = true;
        for (const bool predecode : kLegs) {
            Cpu cpu(configWith(predecode));
            uint64_t faults = 0;
            cpu.setFaultHook([&faults](Cpu &c, uint32_t) {
                ++faults;
                c.mem().write(0x700, static_cast<uint32_t>(faults));
            });
            loadAndStart(cpu, prog);
            cpu.run(budget);
            const Observation got = observe(cpu);
            if (bfirst) {
                bwant = got;
                bfirst = false;
                continue;
            }
            EXPECT_EQ(got, bwant)
                << "budget " << budget << ", "
                << legName(predecode);
        }
    }
}

// A checkpoint written from *inside* the fault hook (pc already past
// the FAULT, the FAULT itself not yet retired) is byte-identical on
// both engines, and each resumes from it to the same final
// architectural state.
TEST(Dispatch, CheckpointFromFaultHookIsModeInvariant)
{
    const assembler::Program prog = assembleOrDie(kFaultLoop);

    Observation want;
    std::vector<uint8_t> wantDoc;
    Observation resumedWant;
    bool first = true;
    for (const bool predecode : kLegs) {
        Cpu cpu(configWith(predecode));
        uint64_t faults = 0;
        std::vector<uint8_t> doc;
        cpu.setFaultHook([&faults, &doc](Cpu &c, uint32_t) {
            ++faults;
            c.mem().write(0x700, static_cast<uint32_t>(faults));
            if (faults == 3) {
                ckpt::Writer writer;
                c.saveState(writer);
                doc = writer.seal();
            }
        });
        loadAndStart(cpu, prog);
        cpu.run(100'000);
        ASSERT_TRUE(cpu.halted()) << legName(predecode);
        ASSERT_FALSE(doc.empty()) << legName(predecode);
        const Observation got = observe(cpu);

        // Resume from the in-hook checkpoint under this same engine,
        // with the hook continuing its count where it left off.
        Cpu target(configWith(predecode));
        uint64_t resumed = 3;
        target.setFaultHook([&resumed](Cpu &c, uint32_t) {
            ++resumed;
            c.mem().write(0x700, static_cast<uint32_t>(resumed));
        });
        target.restoreState(ckpt::Reader(doc));
        target.run(100'000);
        ASSERT_TRUE(target.halted()) << legName(predecode);
        EXPECT_EQ(resumed, 6u) << legName(predecode);
        const Observation res = observe(target);

        if (first) {
            want = got;
            wantDoc = doc;
            resumedWant = res;
            first = false;
            continue;
        }
        EXPECT_EQ(got, want) << legName(predecode);
        EXPECT_EQ(doc, wantDoc) << legName(predecode);
        EXPECT_EQ(res, resumedWant) << legName(predecode);
    }

    // The resumed runs end with the same registers and memory as the
    // uninterrupted ones (the snapshot predates the third FAULT's own
    // retirement, so only the retire counters may differ).
    EXPECT_EQ(resumedWant.regs, want.regs);
    EXPECT_EQ(resumedWant.mem, want.mem);
    EXPECT_EQ(resumedWant.pc, want.pc);
    EXPECT_TRUE(resumedWant.halted);
}

} // namespace
} // namespace rr::machine
