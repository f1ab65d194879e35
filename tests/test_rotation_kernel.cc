/**
 * @file
 * Tests for the all-assembly rotation runtime: every software
 * mechanism of Section 2 (Appendix A allocation/deallocation,
 * Section 2.5 unload/reload, queueing, dispatch) executing as RRISC
 * code with the C++ side only preparing initial state.
 */

#include <gtest/gtest.h>

#include "analysis/static/lint.hh"
#include "assembler/assembler.hh"
#include "kernel/rotation_kernel.hh"
#include "runtime/asm_routines.hh"

namespace rr::kernel {
namespace {

TEST(RotationKernel, CompletesAndRestoresAllocationBitmap)
{
    RotationConfig config;
    config.numThreads = 6;
    config.segmentsPerThread = 8;
    config.workUnits = 50;
    const RotationResult result = runRotationKernel(config);

    EXPECT_TRUE(result.halted);
    EXPECT_FALSE(result.allocPanic);
    // Exact work: every thread ran every unit of every segment.
    EXPECT_EQ(result.workUnits, 6u * 8u * 50u);
    // One fault per segment except the last (which retires).
    EXPECT_EQ(result.faults, 6u * 7u);
    EXPECT_EQ(result.rotations, result.faults);
    // Every context was deallocated: the bitmap is back to its
    // initial image (scheduler chunks used, the rest free).
    EXPECT_EQ(result.finalAllocMap, 0xffffff00u);
}

TEST(RotationKernel, SingleThreadRotatesThroughItself)
{
    RotationConfig config;
    config.numThreads = 1;
    config.segmentsPerThread = 5;
    config.workUnits = 30;
    const RotationResult result = runRotationKernel(config);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.workUnits, 5u * 30u);
    EXPECT_EQ(result.rotations, 4u);
}

TEST(RotationKernel, ManyThreadsStillExact)
{
    RotationConfig config;
    config.numThreads = 40; // far beyond the 24 free chunks
    config.segmentsPerThread = 3;
    config.workUnits = 20;
    const RotationResult result = runRotationKernel(config);
    EXPECT_TRUE(result.halted);
    EXPECT_FALSE(result.allocPanic);
    EXPECT_EQ(result.workUnits, 40u * 3u * 20u);
    EXPECT_EQ(result.finalAllocMap, 0xffffff00u);
}

TEST(RotationKernel, OverheadAmortizesWithSegmentLength)
{
    RotationConfig coarse;
    coarse.numThreads = 4;
    coarse.segmentsPerThread = 6;
    coarse.workUnits = 400;
    RotationConfig fine = coarse;
    fine.workUnits = 20;
    const RotationResult rc = runRotationKernel(coarse);
    const RotationResult rf = runRotationKernel(fine);
    EXPECT_GT(rc.efficiency(), rf.efficiency());
    EXPECT_GT(rc.efficiency(), 0.85);
}

TEST(RotationKernel, PerRotationOverheadWithinBudget)
{
    // Per segment: 2 * workUnits useful + the full software path
    // (fault, unload, mailbox, scheduler, dealloc, dequeue, alloc,
    // reload, resume). That path is ~70-85 cycles — remarkable for a
    // complete dynamic runtime, and the reason software management
    // is viable at all (Section 2).
    RotationConfig config;
    config.numThreads = 4;
    config.segmentsPerThread = 10;
    config.workUnits = 50;
    const RotationResult result = runRotationKernel(config);
    ASSERT_TRUE(result.halted);
    const double overhead_per_segment =
        static_cast<double>(result.totalCycles -
                            result.usefulCycles) /
        static_cast<double>(4 * 10);
    EXPECT_GE(overhead_per_segment, 40.0);
    EXPECT_LE(overhead_per_segment, 95.0);
}

// The flat boundary check (Section 2.4) proves the runtime honours
// its own context sizes: thread-side code addresses only r0..r7, the
// scheduler side fits its 32-register context.
TEST(RotationKernel, RuntimeRespectsDeclaredContextBounds)
{
    const auto prog = assembler::assemble(
        runtime::rotationSchedulerSource(50));
    ASSERT_TRUE(prog.ok());

    // Addresses of the `boundary` findings at @p context that fall in
    // [begin, end).
    auto boundary_in = [&](unsigned context, uint32_t begin,
                           uint32_t end) {
        lint::LintOptions options;
        options.declaredContext = context;
        options.flowSensitive = false;
        std::vector<lint::Finding> out;
        for (const lint::Finding &finding :
             lint::lintProgram(prog, options).findings) {
            if (finding.code == "boundary" && finding.address >= begin &&
                finding.address < end)
                out.push_back(finding);
        }
        return out;
    };

    const uint32_t thread_begin = prog.addressOf("thread_start");
    const uint32_t thread_end = prog.addressOf("sched_rotate");
    const uint32_t boot_begin = prog.addressOf("boot");
    const uint32_t boot_end = prog.addressOf("ctx_alloc8");
    const auto image_end = static_cast<uint32_t>(
        prog.base + prog.words.size());

    std::vector<lint::Finding> violations =
        boundary_in(8, thread_begin, thread_end); // thread contexts
    for (const lint::Finding &finding :
         boundary_in(8, boot_begin, boot_end)) // reload runs there
        violations.push_back(finding);
    // The scheduler and allocators run in the 32-register scheduler
    // context; nothing in the image exceeds it.
    for (const lint::Finding &finding :
         boundary_in(32, prog.base, image_end))
        violations.push_back(finding);
    for (const lint::Finding &finding : violations)
        ADD_FAILURE() << finding.str();
    EXPECT_TRUE(violations.empty());

    // And the thread region genuinely needs all 8 registers.
    EXPECT_FALSE(boundary_in(4, thread_begin, thread_end).empty());
}

TEST(RotationKernel, SaveAreasHoldFinalThreadState)
{
    RotationConfig config;
    config.numThreads = 3;
    config.segmentsPerThread = 4;
    config.workUnits = 25;
    RotationKernel kernel(config);
    const RotationResult result = kernel.run();
    ASSERT_TRUE(result.halted);
    for (unsigned tid = 0; tid < 3; ++tid) {
        const uint64_t area = kernel.saveAreaOf(tid);
        // The last save happened entering the final segment: one
        // segment remained (r6 slot == 1).
        EXPECT_EQ(kernel.cpu().mem().read(area + 4), 1u)
            << "tid " << tid;
        // r7 image stays the constant zero.
        EXPECT_EQ(kernel.cpu().mem().read(area + 5), 0u);
    }
}

} // namespace
} // namespace rr::kernel
