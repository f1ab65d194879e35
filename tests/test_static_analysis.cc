/**
 * @file
 * Tests for the static-analysis subsystem behind rrlint: CFG
 * construction, backward liveness with LDRRM window barriers, the
 * forward RRM abstract interpretation, and the lint orchestration
 * (findings, per-window reports, text/JSON rendering).
 */

#include <gtest/gtest.h>

#include "analysis/static/callgraph.hh"
#include "analysis/static/cfg.hh"
#include "analysis/static/lint.hh"
#include "analysis/static/liveness.hh"
#include "analysis/static/lockset.hh"
#include "analysis/static/rrm_state.hh"
#include "assembler/assembler.hh"
#include "kernel/sync_workload.hh"
#include "runtime/asm_routines.hh"
#include "runtime/context_allocator.hh"
#include "runtime/sync_runtime.hh"

namespace rr::lint {
namespace {

assembler::Program
prog(const std::string &source)
{
    assembler::Program p = assembler::assemble(source);
    EXPECT_TRUE(p.ok());
    return p;
}

uint64_t
bit(unsigned r)
{
    return uint64_t{1} << r;
}

// ---- CFG -----------------------------------------------------------------

TEST(Cfg, SplitsAtBranchesAndTargets)
{
    // entry (2 words: li) | loop body ending in bne | halt
    const auto p = prog("entry:\n"
                        "    li   r4, 3\n"
                        "loop:\n"
                        "    addi r4, r4, -1\n"
                        "    bne  r4, r5, loop\n"
                        "    halt\n");
    const Cfg cfg(p);
    ASSERT_EQ(cfg.blocks().size(), 3u);

    const uint32_t entry = cfg.entryBlock();
    ASSERT_NE(entry, Cfg::noBlock);
    EXPECT_EQ(cfg.blocks()[entry].begin, 0u);

    // entry falls through to the loop; the loop branches to itself
    // and falls through to halt.
    const uint32_t loop = cfg.blockAt(p.addressOf("loop"));
    const BasicBlock &loop_block = cfg.blocks()[loop];
    ASSERT_EQ(loop_block.succs.size(), 2u);
    EXPECT_EQ(cfg.blocks()[entry].succs,
              std::vector<uint32_t>{loop});

    const uint32_t halt = cfg.blockAt(loop_block.end);
    EXPECT_TRUE(cfg.blocks()[halt].succs.empty());
}

TEST(Cfg, UnconditionalBPseudoHasNoFallthroughEdge)
{
    const auto p = prog("entry:\n"
                        "    b    skip\n"
                        "    addi r1, r1, 1\n" // unreachable
                        "skip:\n"
                        "    halt\n");
    const Cfg cfg(p);
    const uint32_t entry = cfg.entryBlock();
    const uint32_t skip = cfg.blockAt(p.addressOf("skip"));
    EXPECT_EQ(cfg.blocks()[entry].succs, std::vector<uint32_t>{skip});

    // The unreachable addi block is a root (no predecessors).
    const auto roots = cfg.roots();
    EXPECT_EQ(roots.size(), 2u);
}

TEST(Cfg, IndirectJumpEndsBlockWithoutEdges)
{
    const auto p = prog("entry:\n"
                        "    jmp  r0\n"
                        "after:\n"
                        "    halt\n");
    const Cfg cfg(p);
    const uint32_t entry = cfg.entryBlock();
    EXPECT_TRUE(cfg.blocks()[entry].succs.empty());
    EXPECT_TRUE(cfg.blocks()[entry].indirectExit);
}

TEST(Cfg, DataWordsBelongToNoBlock)
{
    const auto p = prog("entry:\n"
                        "    halt\n"
                        ".word 0xffffffff\n"
                        "code:\n"
                        "    nop\n"
                        "    halt\n");
    const Cfg cfg(p);
    EXPECT_EQ(cfg.blockAt(1), Cfg::noBlock);
    EXPECT_NE(cfg.blockAt(p.addressOf("code")), Cfg::noBlock);
}

TEST(Cfg, DirectTargetsAreInstructionRelative)
{
    const auto p = prog("entry:\n"
                        "    nop\n"
                        "    jal  r1, entry\n");
    const Cfg cfg(p);
    uint32_t target = 99;
    ASSERT_TRUE(cfg.directTarget(cfg.at(1), target));
    EXPECT_EQ(target, 0u);
}

// ---- liveness ------------------------------------------------------------

TEST(Liveness, UseDefSlots)
{
    const auto p = prog("add r3, r1, r2\n"
                        "st  r4, 0(r5)\n"
                        "jal r6, 0\n");
    const Cfg cfg(p);

    const UseDef add = useDef(cfg.at(0).inst);
    EXPECT_EQ(add.uses, bit(1) | bit(2));
    EXPECT_EQ(add.defs, bit(3));

    // ST's slot A is the stored value — a use, not a def.
    const UseDef st = useDef(cfg.at(1).inst);
    EXPECT_EQ(st.uses, bit(4) | bit(5));
    EXPECT_EQ(st.defs, 0u);

    const UseDef jal = useDef(cfg.at(2).inst);
    EXPECT_EQ(jal.defs, bit(6));
}

TEST(Liveness, LoopLiveIn)
{
    const auto p = prog("entry:\n"
                        "    li   r4, 3\n"
                        "loop:\n"
                        "    add  r3, r3, r4\n"
                        "    bne  r4, r5, loop\n"
                        "    halt\n");
    const Cfg cfg(p);
    const Liveness live(cfg);

    // At entry, r3 and r5 are live (read before written anywhere);
    // r4 is defined first.
    const uint64_t in = live.liveIn(cfg.entryBlock());
    EXPECT_TRUE(in & bit(3));
    EXPECT_TRUE(in & bit(5));
    EXPECT_FALSE(in & bit(4));
}

TEST(Liveness, WindowBarrierRecordsEntryLiveSet)
{
    // After the ldrrm+delay, the new window reads r1 before writing
    // it: r1 is the new context's entry requirement, and must NOT
    // propagate into the old window's live-in.
    const auto p = prog("entry:\n"
                        "    li    r9, 0x20\n"
                        "    ldrrm r9\n"
                        "    nop\n"
                        "    add   r2, r1, r1\n"
                        "    halt\n");
    const Cfg cfg(p);
    const Liveness live(cfg);

    const auto &windows = live.windowEntryLive();
    ASSERT_EQ(windows.size(), 1u);
    const auto [addr, mask] = *windows.begin();
    EXPECT_EQ(addr, 4u); // li is 2 words; ldrrm at 2; nop at 3
    EXPECT_EQ(mask, bit(1));

    // Old window: nothing live at entry (r9 is written first; the
    // new window's r1 is a different physical register).
    EXPECT_EQ(live.liveIn(cfg.entryBlock()), 0u);
}

TEST(Liveness, NoBarrierWhenDisabled)
{
    const auto p = prog("entry:\n"
                        "    li    r9, 0x20\n"
                        "    ldrrm r9\n"
                        "    nop\n"
                        "    add   r2, r1, r1\n"
                        "    halt\n");
    const Cfg cfg(p);
    LivenessOptions options;
    options.windowBarriers = false;
    const Liveness live(cfg, options);
    EXPECT_TRUE(live.windowEntryLive().empty());
    // Textbook liveness: r1 leaks across the window switch.
    EXPECT_EQ(live.liveIn(cfg.entryBlock()), bit(1));
}

// ---- RRM abstract interpretation -----------------------------------------

TEST(RrmState, TracksLiLdrrmThroughDelaySlot)
{
    const auto p = prog("entry:\n"
                        "    li    r9, 0x20\n" // addr 0, 1
                        "    ldrrm r9\n"       // addr 2
                        "    nop\n"            // addr 3: delay slot
                        "    nop\n"            // addr 4: new window
                        "    halt\n");
    const Cfg cfg(p);
    const RrmAnalysis rrm(cfg);

    EXPECT_EQ(rrm.rrmBefore(2), AbsVal::constant(0));
    EXPECT_EQ(rrm.rrmBefore(3), AbsVal::constant(0)); // delay slot
    EXPECT_EQ(rrm.rrmBefore(4), AbsVal::constant(0x20));
    EXPECT_EQ(rrm.observedWindows(),
              (std::vector<uint32_t>{0, 0x20}));
    EXPECT_TRUE(rrm.hazards().empty());
}

TEST(RrmState, ConstantsSurviveWindowSwitches)
{
    // Writes under window 0 are keyed by physical register, so the
    // value in r9 (phys 9) is still known after switching windows
    // and back.
    const auto p = prog("entry:\n"
                        "    li    r9, 0x20\n"
                        "    li    r8, 0\n"
                        "    ldrrm r9\n"
                        "    nop\n"
                        "    ldrrm r8\n" // window 0x20: phys 0x28 = ?
                        "    nop\n"
                        "    halt\n");
    const Cfg cfg(p);
    const RrmAnalysis rrm(cfg);
    // The second ldrrm reads r8 under window 0x20 -> phys 0x28,
    // which was never written: the final window is unknown, not a
    // wrong constant.
    EXPECT_TRUE(rrm.rrmBefore(8).isTop()); // halt at addr 8
}

TEST(RrmState, JoinOfDifferentMasksIsTop)
{
    const auto p = prog("entry:\n"
                        "    li    r9, 0x20\n"
                        "    beq   r1, r2, other\n"
                        "    li    r9, 0x30\n"
                        "other:\n"
                        "    ldrrm r9\n"
                        "    nop\n"
                        "    nop\n"
                        "    halt\n");
    const Cfg cfg(p);
    const RrmAnalysis rrm(cfg);
    const uint32_t halt_addr = p.addressOf("other") + 3;
    EXPECT_TRUE(rrm.rrmBefore(halt_addr).isTop());
}

TEST(RrmState, FlagsLdrrmInsideDelayWindow)
{
    const auto p = prog("entry:\n"
                        "    li    r8, 0x10\n"
                        "    ldrrm r8\n"
                        "    ldrrm r8\n"
                        "    halt\n");
    const Cfg cfg(p);
    const RrmAnalysis rrm(cfg);
    ASSERT_EQ(rrm.hazards().size(), 1u);
    EXPECT_EQ(rrm.hazards()[0].kind, RrmHazard::LdrrmInDelay);
    EXPECT_EQ(rrm.hazards()[0].address, 3u);
}

TEST(RrmState, FlagsControlTransferInsideDelayWindow)
{
    const auto p = prog("entry:\n"
                        "    li    r8, 0x10\n"
                        "    ldrrm r8\n"
                        "    b     entry\n");
    const Cfg cfg(p);
    const RrmAnalysis rrm(cfg);
    ASSERT_EQ(rrm.hazards().size(), 1u);
    EXPECT_EQ(rrm.hazards()[0].kind, RrmHazard::ControlInDelay);
    EXPECT_EQ(rrm.hazards()[0].address, 3u);
}

TEST(RrmState, FigureThreeYieldIdiomIsClean)
{
    // The paper's Figure 3 yield: the delay slot is used for the PSW
    // save, and the jmp executes after the window switch - no
    // hazards.
    const auto p = prog("yield:\n"
                        "    ldrrm r2\n"
                        "    mov   r1, psw\n"
                        "    mov   psw, r1\n"
                        "    jmp   r0\n");
    const Cfg cfg(p);
    const RrmAnalysis rrm(cfg);
    EXPECT_TRUE(rrm.hazards().empty());
}

// ---- lint orchestration --------------------------------------------------

TEST(Lint, FlatBoundaryFindingCarriesLine)
{
    const auto p = prog("entry:\n"
                        "    nop\n"
                        "    add r17, r1, r2\n");
    LintOptions options;
    options.declaredContext = 16;
    const LintResult result = lintProgram(p, options);
    ASSERT_EQ(result.errors, 1u);
    const Finding &f = result.findings[0];
    EXPECT_EQ(f.code, "boundary");
    EXPECT_EQ(f.address, 1u);
    EXPECT_EQ(f.line, 3);
    EXPECT_NE(f.message.find("r17"), std::string::npos);
}

TEST(Lint, FlowSensitiveOverlapNeedsNoDeclaredRegions)
{
    // Under RRM 0x10, r17 shares bit 4 with the mask: the access
    // escapes the 16-register window. No Region declarations needed.
    const auto p = prog("entry:\n"
                        "    li    r8, 0x10\n"
                        "    ldrrm r8\n"
                        "    nop\n"
                        "    add   r17, r1, r2\n"
                        "    halt\n");
    const LintResult result = lintProgram(p, {});
    ASSERT_EQ(result.errors, 1u);
    EXPECT_EQ(result.findings[0].code, "rrm-overlap");
    EXPECT_EQ(result.findings[0].address, 4u);
}

TEST(Lint, CrossContextWriteHitsLiveRegister)
{
    // Window 0x20 writes r17 -> phys 0x31, which is r1 of window
    // 0x30 - and window 0x30 reads r1 before writing it.
    const auto p = prog("entry:\n"
                        "    li    r9, 0x20\n"
                        "    ldrrm r9\n"
                        "    nop\n"
                        "    addi  r17, r17, 1\n" // phys 0x31
                        "    li    r8, 0x30\n"
                        "    ldrrm r8\n"
                        "    nop\n"
                        "    add   r2, r1, r1\n" // r1 live at entry
                        "    halt\n");
    const LintResult result = lintProgram(p, {});
    bool found = false;
    for (const Finding &f : result.findings) {
        if (f.code == "cross-context-write") {
            found = true;
            EXPECT_EQ(f.severity, Severity::Warning);
            EXPECT_NE(f.message.find("0x31"), std::string::npos);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_GE(result.warnings, 1u);
}

TEST(Lint, ReportsPerWindowMinimalContext)
{
    const auto p = prog("entry:\n"
                        "    li    r9, 0x20\n"
                        "    ldrrm r9\n"
                        "    nop\n"
                        "    add   r2, r1, r4\n"
                        "    halt\n");
    const LintResult result = lintProgram(p, {});
    ASSERT_EQ(result.threads.size(), 2u);

    // Window 0: r9 referenced -> 10 registers -> context 16.
    EXPECT_EQ(result.threads[0].rrm, 0u);
    EXPECT_EQ(result.threads[0].registers, 10u);
    EXPECT_EQ(result.threads[0].minContext, 16u);

    // Window 0x20: r1, r2, r4 -> 5 registers -> context 8; r1 and
    // r4 are read before being written: the entry requirement.
    EXPECT_EQ(result.threads[1].rrm, 0x20u);
    EXPECT_EQ(result.threads[1].registers, 5u);
    EXPECT_EQ(result.threads[1].minContext, 8u);
    EXPECT_EQ(result.threads[1].liveIn, bit(1) | bit(4));
}

TEST(Lint, MultiRrmBankOperandsExcused)
{
    // r37 = bank 1, offset 5 at w = 6: fine with 2 banks, flagged
    // without.
    const auto p = prog("add r37, r1, r2\nhalt\n");
    LintOptions options;
    options.geometry.operandWidth = 6;
    options.declaredContext = 8;
    EXPECT_EQ(lintProgram(p, options).errors, 1u);

    options.geometry.banks = 2;
    EXPECT_EQ(lintProgram(p, options).errors, 0u);
}

TEST(Lint, OperandWiderThanTheMachineTraps)
{
    // The default geometry is the machine's: w = 5, so r32 is the
    // first operand that traps (operand-too-wide). Bank bits do not
    // widen the field: with 2 banks r31 is bank 1, r32 still traps.
    const auto p = prog("add r31, r1, r2\n"
                        "add r1, r32, r2\n"
                        "halt\n");
    for (const unsigned banks : {1u, 2u}) {
        LintOptions options;
        options.geometry.banks = banks;
        const LintResult result = lintProgram(p, options);
        ASSERT_EQ(result.findings.size(), 1u) << banks;
        EXPECT_EQ(result.findings[0].code, "operand-too-wide");
        EXPECT_EQ(result.findings[0].address, 1u);
        EXPECT_NE(result.findings[0].message.find(": rs1 r32 "),
                  std::string::npos);
    }

    LintOptions wide;
    wide.geometry.operandWidth = 6;
    EXPECT_TRUE(lintProgram(p, wide).findings.empty());
}

TEST(Lint, InvalidWordsFlaggedOnRequest)
{
    const auto p = prog(".word 0xffffffff\nhalt\n");
    EXPECT_EQ(lintProgram(p, {}).errors, 0u);

    LintOptions options;
    options.flagInvalidWords = true;
    const LintResult result = lintProgram(p, options);
    ASSERT_EQ(result.errors, 1u);
    EXPECT_EQ(result.findings[0].code, "invalid-word");
}

TEST(Lint, RenderTextAndJsonCarrySourceLines)
{
    const auto p = prog("entry:\n"
                        "    nop\n"
                        "    add r17, r1, r2\n");
    LintOptions options;
    options.declaredContext = 16;
    const LintResult result = lintProgram(p, options);

    const std::string text = renderText(result, "input.s");
    EXPECT_NE(text.find("line 3"), std::string::npos);
    EXPECT_NE(text.find("[boundary]"), std::string::npos);
    EXPECT_NE(text.find("1 error(s)"), std::string::npos);

    FileReport report;
    report.file = "input.s";
    report.result = result;
    const std::string json = renderJsonDocument({report}, "test", 1);
    EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"code\": \"boundary\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
}

TEST(Lint, JsonEscapesSpecialCharacters)
{
    const auto p = prog("halt\n");
    FileReport report;
    report.file = "dir\\na\"me.s";
    report.result = lintProgram(p, {});
    const std::string json = renderJsonDocument({report}, "test", 0);
    EXPECT_NE(json.find("dir\\\\na\\\"me.s"), std::string::npos);
}

TEST(Lint, FlatOnlyModeSkipsFlowAnalyses)
{
    const auto p = prog("entry:\n"
                        "    li    r8, 0x10\n"
                        "    ldrrm r8\n"
                        "    ldrrm r8\n"
                        "    halt\n");
    LintOptions options;
    options.flowSensitive = false;
    const LintResult result = lintProgram(p, options);
    EXPECT_TRUE(result.clean());
    EXPECT_TRUE(result.threads.empty());
}

// ---- flat boundary check (Section 2.4) ---------------------------------

/** The flat check alone: every register operand against @p context. */
LintResult
flatCheck(const assembler::Program &p, unsigned context,
          LintOptions options = {})
{
    options.declaredContext = context;
    options.flowSensitive = false;
    return lintProgram(p, options);
}

TEST(Lint, FlatCheckPassesCleanProgram)
{
    const auto p = prog("add r1, r2, r3\n"
                        "ld r4, 0(r5)\n"
                        "beq r6, r7, 0\n"
                        "halt\n");
    EXPECT_TRUE(flatCheck(p, 8).findings.empty());
}

TEST(Lint, FlatCheckFlagsEachOperandSlot)
{
    const auto p = prog("add r9, r1, r2\n"  // rd out of 8
                        "add r1, r9, r2\n"  // rs1 out
                        "add r1, r2, r9\n"  // rs2 out
                        "st  r9, 0(r1)\n"); // ST's rd is read, still rd
    const LintResult result = flatCheck(p, 8);
    ASSERT_EQ(result.findings.size(), 4u);
    const char *const slots[] = {": rd r9 ", ": rs1 r9 ", ": rs2 r9 ",
                                 ": rd r9 "};
    for (uint32_t i = 0; i < 4; ++i) {
        const Finding &f = result.findings[i];
        EXPECT_EQ(f.code, "boundary");
        EXPECT_EQ(f.address, i);
        EXPECT_NE(f.message.find(slots[i]), std::string::npos)
            << f.message;
        EXPECT_NE(f.message.find("outside declared context of 8 "
                                 "registers"),
                  std::string::npos);
    }
}

TEST(Lint, FlatCheckBFormatHasNoRd)
{
    // B-format's slot A is rs1: a branch on r9 reports rs1, once.
    const LintResult result = flatCheck(prog("beq r9, r1, 0\n"), 8);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_NE(result.findings[0].message.find(": rs1 r9 "),
              std::string::npos);
}

TEST(Lint, FlatCheckIgnoresDataWordsUnlessFlagged)
{
    const auto p = prog(".word 0xffffffff\n"
                        "halt\n");
    EXPECT_TRUE(flatCheck(p, 8).findings.empty());

    LintOptions options;
    options.flagInvalidWords = true;
    const LintResult result = flatCheck(p, 8, options);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].code, "invalid-word");
    EXPECT_EQ(result.findings[0].address, 0u);
}

TEST(Lint, FlatCheckExcusesBankBitsAtNonDefaultWidth)
{
    // With w = 5 and two banks, only the low 4 bits are the offset:
    // r21 = 0b1.0101 is bank 1, offset 5 (fine in a size-8 context);
    // r29 = 0b1.1101 is bank 1, offset 13 (violates it).
    LintOptions options;
    options.geometry.banks = 2;
    options.geometry.operandWidth = 5;
    EXPECT_TRUE(
        flatCheck(prog("add r21, r1, r2\n"), 8, options).findings.empty());
    const LintResult result =
        flatCheck(prog("add r29, r1, r2\n"), 8, options);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_NE(result.findings[0].message.find(": rd r29 "),
              std::string::npos);

    // Four banks on the full 6-bit field: r37 = 0b10.0101 is bank 2,
    // offset 5.
    options.geometry.banks = 4;
    options.geometry.operandWidth = 6;
    EXPECT_TRUE(
        flatCheck(prog("add r37, r1, r2\n"), 8, options).findings.empty());
}

// Every embedded RRISC routine fits the context size its header
// documents (or, for the sync scenarios, the size the sync kernel
// allocates), and needs more than half of it.
TEST(Lint, EmbeddedRoutinesFitTheirDocumentedContexts)
{
    struct Row
    {
        std::string name;
        std::string source;
        unsigned context;
        const char *begin = nullptr; ///< region labels; null = image
        const char *end = nullptr;
    };
    std::vector<Row> rows = {
        {"figure3_yield", runtime::figure3YieldSource(), 4},
        {"appendix_a_allocator", runtime::appendixAAllocatorSource(), 16},
        {"round_robin_demo", runtime::roundRobinDemoSource(), 16},
        {"save_restore", runtime::saveRestoreSource(30), 32},
        {"rotation_threads", runtime::rotationSchedulerSource(50), 8,
         "thread_start", "sched_rotate"},
        {"rotation_scheduler", runtime::rotationSchedulerSource(50), 32},
        {"twophase", runtime::twoPhaseSchedulerSource(50, 3), 8},
    };
    const kernel::SyncWorkloadConfig sync;
    const unsigned sync_context =
        runtime::ContextAllocator(sync.geometry.numRegs,
                                  sync.geometry.operandWidth)
            .contextSizeFor(sync.regsUsed);
    for (const runtime::SyncScenario scenario :
         {runtime::SyncScenario::UncontendedLock,
          runtime::SyncScenario::LockConvoy,
          runtime::SyncScenario::ProducerConsumer,
          runtime::SyncScenario::BarrierSkew}) {
        runtime::SyncProgramParams params;
        params.scenario = scenario;
        rows.push_back({runtime::syncScenarioName(scenario),
                        runtime::syncScenarioSource(params),
                        sync_context});
    }

    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        const auto p = prog(row.source);
        const uint32_t begin = row.begin ? p.addressOf(row.begin) : 0;
        const uint32_t end =
            row.end ? p.addressOf(row.end)
                    : static_cast<uint32_t>(p.base + p.words.size());
        auto findings_at = [&](unsigned context) {
            std::vector<Finding> out;
            for (const Finding &f : flatCheck(p, context).findings) {
                if (f.address >= begin && f.address < end)
                    out.push_back(f);
            }
            return out;
        };
        for (const Finding &f : findings_at(row.context))
            ADD_FAILURE() << f.str();
        EXPECT_FALSE(findings_at(row.context / 2).empty());
    }
}

// The Section 2.4 boundary-checker cases, kept under their original
// names: the flat lint check is now the one boundary checker.

TEST(BoundaryChecker, ReportsAddressAndLine)
{
    const auto p = prog("nop\n"
                        "nop\n"
                        "addi r12, r1, 0\n");
    const LintResult result = flatCheck(p, 8);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].code, "boundary");
    EXPECT_EQ(result.findings[0].address, 2u);
    EXPECT_EQ(result.findings[0].line, 3);
    EXPECT_NE(result.findings[0].str().find("r12"), std::string::npos);
}

TEST(BoundaryChecker, MultiRrmBankBitExcused)
{
    // Operand 32+5 = r37 at w = 6: illegal in a size-8 single-bank
    // context, legal when the top bit selects bank 1 (offset 5).
    const auto p = prog("add r37, r1, r2\n");
    LintOptions options;
    options.geometry.operandWidth = 6;
    EXPECT_EQ(flatCheck(p, 8, options).findings.size(), 1u);

    options.geometry.banks = 2;
    EXPECT_TRUE(flatCheck(p, 8, options).findings.empty());
}

// The paper's own runtime code must satisfy its register
// conventions: the yield routine touches only r0..r2 and passes a
// 4-register context check; the allocator uses r4..r15 and fits a
// 16-register scheduler context.
TEST(BoundaryChecker, Figure3YieldFitsMinimalContext)
{
    const auto p = prog(runtime::roundRobinDemoSource());
    const uint32_t yield = p.addressOf("yield");
    for (const Finding &f : flatCheck(p, 4).findings) {
        if (f.address >= yield && f.address < yield + 4)
            ADD_FAILURE() << f.str();
    }
}

TEST(BoundaryChecker, AppendixAAllocatorFitsSchedulerContext)
{
    const auto p = prog(runtime::appendixAAllocatorSource());
    EXPECT_TRUE(flatCheck(p, 16).findings.empty());
    // ...but it would violate an 8-register context.
    EXPECT_FALSE(flatCheck(p, 8).findings.empty());
}

// ---- Call graph ----------------------------------------------------------

// The tests/asm/ fixture sources, pinned inline so behavior changes
// show up here before they show up in the tool-integration tests.

const char *kCrossCallHazard = "entry:\n"
                               "    jal   r8, open_window\n"
                               "    add   r1, r1, r1\n"
                               "    halt\n"
                               "open_window:\n"
                               "    li    r4, 0x10\n"
                               "    ldrrm r4\n"
                               "    jmp   r8\n";

const char *kUndersizedChain = "entry:\n"
                               "    li    r4, 0x10\n"
                               "    ldrrm r4\n"
                               "    nop\n"
                               "    jal   r8, a\n"
                               "    halt\n"
                               "a:\n"
                               "    jal   r9, b\n"
                               "    jmp   r8\n"
                               "b:\n"
                               "    add   r20, r20, r20\n"
                               "    jmp   r9\n";

std::string
counterSource(bool t1Locked)
{
    std::string body = "    li    r4, 0x80\n"
                       "    ld    r1, 0(r4)\n"
                       "    addi  r1, r1, 1\n"
                       "    st    r1, 0(r4)\n";
    std::string locked = "    jal   r8, lock_acquire\n" + body +
                         "    jal   r8, lock_release\n";
    return "    .thread t0\n"
           "    .thread t1\n"
           "    .lockdef m, lock_acquire, lock_release\n"
           "entry:\n"
           "    halt\n"
           "t0:\n" +
           locked + "    halt\n" + "t1:\n" +
           (t1Locked ? locked : body) + "    halt\n" +
           "lock_acquire:\n"
           "    li    r5, 0x81\n"
           "    li    r6, 1\n"
           "spin:\n"
           "    ld    r7, 0(r5)\n"
           "    beq   r7, r6, spin\n"
           "    st    r6, 0(r5)\n"
           "    jmp   r8\n"
           "lock_release:\n"
           "    li    r5, 0x81\n"
           "    li    r6, 0\n"
           "    st    r6, 0(r5)\n"
           "    jmp   r8\n";
}

const Procedure *
procNamed(const CallGraph &cg, const std::string &name)
{
    for (const Procedure &p : cg.procedures())
        if (p.name == name)
            return &p;
    return nullptr;
}

std::vector<const Finding *>
findingsByCode(const LintResult &result, const std::string &code)
{
    std::vector<const Finding *> out;
    for (const Finding &f : result.findings)
        if (f.code == code)
            out.push_back(&f);
    return out;
}

TEST(CallGraph, DiscoversProceduresAndTransitiveSummaries)
{
    const auto p = prog(kUndersizedChain);
    const Cfg cfg(p);
    const CallGraph cg(cfg);

    const Procedure *entry = procNamed(cg, "entry");
    const Procedure *a = procNamed(cg, "a");
    const Procedure *b = procNamed(cg, "b");
    ASSERT_TRUE(entry && a && b);

    EXPECT_TRUE(entry->isEntry);
    EXPECT_FALSE(entry->returns);
    EXPECT_TRUE(a->returns);
    EXPECT_TRUE(b->returns);

    // b's direct footprint covers r20 and its link register r9; a's
    // transitive footprint includes the whole subtree.
    EXPECT_EQ(b->regsRead & bit(20), bit(20));
    EXPECT_EQ(b->registers, 21u);
    EXPECT_EQ(b->minContext, 32u);
    EXPECT_EQ(a->footprint & (bit(8) | bit(9) | bit(20)),
              bit(8) | bit(9) | bit(20));
    EXPECT_EQ(a->registers, 21u);

    // The LDRRM is in entry itself, not in a's subtree.
    EXPECT_TRUE(entry->switchesRrm);
    EXPECT_FALSE(a->switchesRrm);

    const uint32_t bIndex =
        cg.procByEntry(p.addressOf("b"));
    ASSERT_NE(bIndex, CallGraph::noProc);
    const auto path = cg.callPath(bIndex);
    const std::vector<std::string> expect = {"entry", "a", "b"};
    EXPECT_EQ(path, expect);
}

TEST(CallGraph, ThreadAndLockDirectivesMakeEntries)
{
    const auto p = prog(counterSource(true));
    const Cfg cfg(p);
    const CallGraph cg(cfg);

    const Procedure *t0 = procNamed(cg, "t0");
    const Procedure *acquire = procNamed(cg, "lock_acquire");
    const Procedure *release = procNamed(cg, "lock_release");
    ASSERT_TRUE(t0 && acquire && release);

    EXPECT_TRUE(t0->isThread);
    EXPECT_EQ(acquire->lockAcquire, 0);
    EXPECT_EQ(acquire->lockRelease, -1);
    EXPECT_EQ(release->lockRelease, 0);
    ASSERT_EQ(cg.lockNames().size(), 1u);
    EXPECT_EQ(cg.lockNames()[0], "m");
}

TEST(CallGraph, AddressTakenLabelsBecomeJalrTargets)
{
    const auto p = prog("entry:\n"
                        "    la    r4, helper\n"
                        "    jalr  r8, r4\n"
                        "    halt\n"
                        "helper:\n"
                        "    jmp   r8\n");
    const Cfg cfg(p);
    const CallGraph cg(cfg);

    const Procedure *helper = procNamed(cg, "helper");
    ASSERT_TRUE(helper);
    EXPECT_TRUE(helper->addressTaken);

    const Procedure *entry = procNamed(cg, "entry");
    ASSERT_TRUE(entry);
    EXPECT_TRUE(entry->callsIndirect);
}

// ---- Interprocedural lint ------------------------------------------------

TEST(Lint, CrossCallLdrrmHazardWithCallPathWitness)
{
    const auto p = prog(kCrossCallHazard);
    LintOptions options;
    options.interprocedural = true;
    const LintResult result = lintProgram(p, options);

    const auto across = findingsByCode(result, "ldrrm-across-call");
    ASSERT_EQ(across.size(), 1u);
    EXPECT_EQ(across[0]->address, 6u);
    const std::vector<std::string> expect = {"entry", "open_window"};
    EXPECT_EQ(across[0]->path, expect);

    // Without the call graph the return edge does not exist, so the
    // interprocedural hazard cannot be seen (the in-window control
    // transfer still is).
    const LintResult flat = lintProgram(p, {});
    EXPECT_TRUE(findingsByCode(flat, "ldrrm-across-call").empty());
    EXPECT_EQ(findingsByCode(flat, "delay-slot-control").size(), 1u);
}

TEST(Lint, UndersizedContextHiddenBehindCalls)
{
    const auto p = prog(kUndersizedChain);
    LintOptions options;
    options.interprocedural = true;
    const LintResult result = lintProgram(p, options);

    const auto undersized =
        findingsByCode(result, "call-undersized-context");
    ASSERT_EQ(undersized.size(), 2u);
    // Both call sites sit under the 16-register window 0x10 while
    // the callee subtree needs 21 registers; the deeper finding
    // carries the full chain.
    const std::vector<std::string> chain = {"entry", "a", "b"};
    EXPECT_EQ(undersized[1]->path, chain);
    EXPECT_NE(undersized[0]->message.find("21 register(s)"),
              std::string::npos);

    ASSERT_EQ(result.procedures.size(), 3u);
    EXPECT_EQ(result.procedures[0].name, "entry");
    EXPECT_EQ(result.procedures[0].minContext, 32u);
}

// ---- Lockset race detection ----------------------------------------------

TEST(Lockset, LockedCounterIsClean)
{
    const auto p = prog(counterSource(true));
    LintOptions options;
    options.interprocedural = true;
    options.lockset = true;
    const LintResult result = lintProgram(p, options);

    EXPECT_TRUE(result.clean());
    EXPECT_TRUE(result.races.empty());
    EXPECT_TRUE(findingsByCode(result, "race").empty());
}

TEST(Lockset, UnlockedThreadRacesWithStableSitePair)
{
    const auto p = prog(counterSource(false));
    LintOptions options;
    options.interprocedural = true;
    options.lockset = true;
    const LintResult result = lintProgram(p, options);

    ASSERT_EQ(result.races.size(), 1u);
    const RaceReport &race = result.races[0];
    EXPECT_EQ(race.mem, 0x80u);

    // Stable witness pair: t0's locked read vs t1's unlocked write.
    EXPECT_EQ(race.first.thread, "t0");
    EXPECT_FALSE(race.first.write);
    ASSERT_EQ(race.first.locks.size(), 1u);
    EXPECT_EQ(race.first.locks[0], "m");
    EXPECT_EQ(race.second.thread, "t1");
    EXPECT_TRUE(race.second.write);
    EXPECT_TRUE(race.second.locks.empty());

    const auto findings = findingsByCode(result, "race");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0]->severity, Severity::Error);
    EXPECT_NE(findings[0]->message.find("locks none"),
              std::string::npos);
}

TEST(Lockset, PostIndirectCallAccessesStayClassified)
{
    // t0 holds the lock for its first store, then makes an indirect
    // call to a plain helper and stores again. No address-taken
    // procedure switches the RRM, so the caller-side return edge
    // keeps the RRM constant across the JALR and the second store
    // stays classified — still under the lock, since the helper has
    // no .lockdef effect the indirection could apply.
    const auto p = prog("    .thread t0\n"
                        "    .thread t1\n"
                        "    .lockdef m, lock_acquire, lock_release\n"
                        "entry:\n"
                        "    halt\n"
                        "t0:\n"
                        "    jal   r8, lock_acquire\n"
                        "    li    r4, 0x80\n"
                        "    st    r1, 0(r4)\n"
                        "    la    r9, helper\n"
                        "    jalr  r10, r9\n"
                        "    li    r4, 0x80\n"
                        "    st    r1, 0(r4)\n"
                        "    halt\n"
                        "t1:\n"
                        "    jal   r8, lock_acquire\n"
                        "    li    r4, 0x80\n"
                        "    ld    r1, 0(r4)\n"
                        "    jal   r8, lock_release\n"
                        "    halt\n"
                        "helper:\n"
                        "    jmp   r10\n"
                        "lock_acquire:\n"
                        "    jmp   r8\n"
                        "lock_release:\n"
                        "    jmp   r8\n");
    const Cfg cfg(p);
    const CallGraph cg(cfg);
    const RrmAnalysis rrm(cfg, {}, &cg);
    const LocksetAnalysis lockset(cfg, cg, rrm);

    EXPECT_TRUE(lockset.races().empty());
    // The helper is not a lock procedure, so no trust-contract site
    // is reported for the JALR.
    EXPECT_TRUE(lockset.indirectLockSites().empty());
    unsigned counted = 0;
    for (const Access &access : lockset.accesses())
        if (access.mem == 0x80) {
            ++counted;
            EXPECT_NE(access.held, 0u);
        }
    // All three accesses fold and carry the lock: both of t0's
    // stores (the JALR no longer drops the lockset or the constant
    // RRM) and t1's load.
    EXPECT_EQ(counted, 3u);
}

TEST(Lockset, RrmSwitchingIndirectCalleeStopsClassification)
{
    // Same shape, but the address-taken helper executes LDRRM: the
    // RRM after the JALR is genuinely unknown, so the post-call store
    // drops out of classification — the documented caveat, now
    // narrowed to callees that actually switch the mask.
    const auto p = prog("    .thread t0\n"
                        "    .lockdef m, lock_acquire, lock_release\n"
                        "entry:\n"
                        "    halt\n"
                        "t0:\n"
                        "    jal   r8, lock_acquire\n"
                        "    li    r4, 0x80\n"
                        "    st    r1, 0(r4)\n"
                        "    la    r9, helper\n"
                        "    jalr  r10, r9\n"
                        "    li    r4, 0x80\n"
                        "    st    r1, 0(r4)\n"
                        "    halt\n"
                        "helper:\n"
                        "    ldrrm r5\n"
                        "    nop\n"
                        "    jmp   r10\n"
                        "lock_acquire:\n"
                        "    jmp   r8\n"
                        "lock_release:\n"
                        "    jmp   r8\n");
    const Cfg cfg(p);
    const CallGraph cg(cfg);
    const RrmAnalysis rrm(cfg, {}, &cg);
    const LocksetAnalysis lockset(cfg, cg, rrm);

    unsigned counted = 0;
    for (const Access &access : lockset.accesses())
        if (access.mem == 0x80)
            ++counted;
    EXPECT_EQ(counted, 1u);
}

TEST(Lockset, LockAcquireViaJalrKeepsTheTrustContract)
{
    // t0 takes the mutex through `la` + `jalr`, t1 directly. The
    // .lockdef contract must survive the indirection — no race on
    // the counter — and the approximation must surface as an
    // explicit indirect-lock site, never silently.
    const auto p = prog("    .thread t0\n"
                        "    .thread t1\n"
                        "    .lockdef m, lock_acquire, lock_release\n"
                        "entry:\n"
                        "    halt\n"
                        "t0:\n"
                        "    la    r9, lock_acquire\n"
                        "    jalr  r8, r9\n"
                        "    li    r4, 0x80\n"
                        "    st    r1, 0(r4)\n"
                        "    jal   r8, lock_release\n"
                        "    halt\n"
                        "t1:\n"
                        "    jal   r8, lock_acquire\n"
                        "    li    r4, 0x80\n"
                        "    ld    r1, 0(r4)\n"
                        "    jal   r8, lock_release\n"
                        "    halt\n"
                        "lock_acquire:\n"
                        "    jmp   r8\n"
                        "lock_release:\n"
                        "    jmp   r8\n");
    const Cfg cfg(p);
    const CallGraph cg(cfg);
    const RrmAnalysis rrm(cfg, {}, &cg);
    const LocksetAnalysis lockset(cfg, cg, rrm);

    EXPECT_TRUE(lockset.races().empty());
    ASSERT_EQ(lockset.indirectLockSites().size(), 1u);
    const IndirectLockSite &site = lockset.indirectLockSites()[0];
    EXPECT_EQ(site.acquires, 1u); // lock bit 0: "m"
    EXPECT_EQ(site.releases, 0u);

    // t0's store is classified *with* the lock held.
    bool saw_store = false;
    for (const Access &access : lockset.accesses()) {
        if (access.mem != 0x80 || !access.write)
            continue;
        saw_store = true;
        EXPECT_EQ(access.held, 1u);
    }
    EXPECT_TRUE(saw_store);
}

TEST(Lint, IndirectLockCallWarnsInsteadOfStayingSilent)
{
    const auto p = prog("    .thread t0\n"
                        "    .lockdef m, lock_acquire, lock_release\n"
                        "entry:\n"
                        "    halt\n"
                        "t0:\n"
                        "    la    r9, lock_acquire\n"
                        "    jalr  r8, r9\n"
                        "    li    r4, 0x80\n"
                        "    st    r1, 0(r4)\n"
                        "    jal   r8, lock_release\n"
                        "    halt\n"
                        "lock_acquire:\n"
                        "    jmp   r8\n"
                        "lock_release:\n"
                        "    jmp   r8\n");
    LintOptions options;
    options.interprocedural = true;
    options.lockset = true;
    const LintResult result = lintProgram(p, options);

    EXPECT_TRUE(result.races.empty());
    const auto findings =
        findingsByCode(result, "lock-indirect-call");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0]->severity, Severity::Warning);
    EXPECT_NE(findings[0]->message.find("acquires m"),
              std::string::npos);
    // A warning fails the lint: the approximation is never free.
    EXPECT_FALSE(result.clean());
    EXPECT_EQ(result.errors, 0u);
}

// ---- rr.lint.v1 document -------------------------------------------------

TEST(Lint, JsonDocumentCoversAllFileShapes)
{
    FileReport linted;
    linted.file = "racy.s";
    {
        LintOptions options;
        options.interprocedural = true;
        options.lockset = true;
        linted.result =
            lintProgram(prog(counterSource(false)), options);
    }

    FileReport unreadable;
    unreadable.file = "missing.s";
    unreadable.readable = false;

    FileReport broken;
    broken.file = "broken.s";
    broken.assemblyErrors.push_back({3, "unknown mnemonic 'frob'"});

    const std::string doc = renderJsonDocument(
        {linted, unreadable, broken}, "1.2.3", 2);

    EXPECT_NE(doc.find("\"schema\": \"rr.lint.v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"version\": \"1.2.3\""), std::string::npos);
    EXPECT_NE(doc.find("\"readable\": false"), std::string::npos);
    EXPECT_NE(doc.find("\"code\": \"assembly-error\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"code\": \"race\""), std::string::npos);
    EXPECT_NE(doc.find("\"races\""), std::string::npos);
    EXPECT_NE(doc.find("\"files\": 3"), std::string::npos);
    EXPECT_NE(doc.find("\"exit\": 2"), std::string::npos);
}

} // namespace
} // namespace rr::lint
