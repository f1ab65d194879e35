/**
 * @file
 * Tests for the decode-stage relocation unit: the paper's OR
 * mechanism (including the Figure 1 worked examples), the Mux
 * bounds-checking variant (footnote 3), the Am29000 ADD variant, and
 * the multi-bank extension (Section 5.3).
 */

#include <gtest/gtest.h>

#include "machine/relocation_unit.hh"

namespace rr::machine {
namespace {

// Figure 1(a): 128 registers, RRM relocating a context of size 8 at
// base 40: context-relative register 5 -> absolute register 45.
TEST(RelocationUnit, Figure1aExample)
{
    RelocationUnit unit({128, 5});
    unit.setMask(40);
    EXPECT_EQ(unit.relocate(5).physical, 45u);
}

// Figure 1(b): context of size 16 at base 32: context-relative
// register 14 -> absolute register 46.
TEST(RelocationUnit, Figure1bExample)
{
    RelocationUnit unit({128, 5});
    unit.setMask(32);
    EXPECT_EQ(unit.relocate(14).physical, 46u);
}

TEST(RelocationUnit, OrIsBitwiseOr)
{
    RelocationUnit unit({128, 5});
    for (const uint32_t mask : {0u, 8u, 16u, 40u, 96u}) {
        unit.setMask(mask);
        for (unsigned operand = 0; operand < 32; ++operand) {
            EXPECT_EQ(unit.relocate(operand).physical,
                      (mask | operand) & 0x7fu);
            EXPECT_TRUE(unit.relocate(operand).ok);
        }
    }
}

// For size-aligned contexts, OR relocation equals base + offset —
// the property that makes the RRM double as a base register number.
TEST(RelocationUnit, OrEqualsAddForAlignedContexts)
{
    RelocationUnit unit({256, 6});
    for (const unsigned size : {4u, 8u, 16u, 32u, 64u}) {
        for (unsigned base = 0; base + size <= 256; base += size) {
            unit.setMask(base);
            for (unsigned offset = 0; offset < size; ++offset) {
                EXPECT_EQ(unit.relocate(offset).physical, base + offset)
                    << "size=" << size << " base=" << base
                    << " offset=" << offset;
            }
        }
    }
}

TEST(RelocationUnit, MaskTruncatedToMaskBits)
{
    RelocationUnit unit({128, 5});
    EXPECT_EQ(unit.maskBits(), 7u); // ceil(lg 128)
    unit.setMask(0xffffff80u | 40u);
    EXPECT_EQ(unit.mask(), 40u);
}

TEST(RelocationUnit, MuxModeRelocatesWithinContext)
{
    RelocationUnit unit({128, 5, 1, RelocationMode::Mux});
    unit.setContextSize(8);
    unit.setMask(40);
    const RelocationResult ok = unit.relocate(5);
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.physical, 45u);
}

// Footnote 3: the Mux variant catches a thread reaching outside its
// allocated context, which plain OR silently permits.
TEST(RelocationUnit, MuxModeFlagsBoundsViolation)
{
    RelocationUnit unit({128, 5, 1, RelocationMode::Mux});
    unit.setContextSize(8);
    unit.setMask(40);
    const RelocationResult bad = unit.relocate(9); // >= size 8
    EXPECT_FALSE(bad.ok);
}

TEST(RelocationUnit, AddModeSupportsUnalignedBases)
{
    RelocationUnit unit({128, 5, 1, RelocationMode::Add});
    unit.setMask(12); // not a power-of-two-aligned base
    EXPECT_EQ(unit.relocate(5).physical, 17u);
    EXPECT_TRUE(unit.relocate(5).ok);
}

TEST(RelocationUnit, OrDiffersFromAddOnUnalignedBase)
{
    RelocationUnit or_unit({128, 5, 1, RelocationMode::Or});
    RelocationUnit add_unit({128, 5, 1, RelocationMode::Add});
    or_unit.setMask(12);
    add_unit.setMask(12);
    // 12 | 5 = 13, but 12 + 5 = 17: OR requires aligned contexts.
    EXPECT_EQ(or_unit.relocate(5).physical, 13u);
    EXPECT_EQ(add_unit.relocate(5).physical, 17u);
}

// Section 5.3: with two banks, the top operand bit selects the mask.
TEST(RelocationUnit, DualBankSelection)
{
    RelocationUnit unit({128, 6, 2, RelocationMode::Or});
    unit.setMask(32, 0);
    unit.setMask(64, 1);
    // Operand 0b0_00101 -> bank 0, offset 5.
    EXPECT_EQ(unit.relocate(5).physical, 37u);
    // Operand 0b1_00101 -> bank 1, offset 5.
    EXPECT_EQ(unit.relocate(32 + 5).physical, 69u);
}

TEST(RelocationUnit, BankCountAndWidthValidation)
{
    RelocationUnit unit({256, 6, 4, RelocationMode::Or});
    EXPECT_EQ(unit.numBanks(), 4u);
    unit.setMask(128, 3);
    // Top two bits select bank 3; remaining 4 bits are the offset.
    EXPECT_EQ(unit.relocate(0b110101).physical, 128u + 0b0101u);
}

TEST(RelocationUnitDeath, InvalidConfigPanics)
{
    EXPECT_DEATH(RelocationUnit({100, 5}), "power of two");
    EXPECT_DEATH(RelocationUnit({128, 9}), "operand width");
    EXPECT_DEATH(RelocationUnit({16, 6}), "addresses more registers");
}

TEST(RelocationUnitDeath, BadContextSizePanics)
{
    RelocationUnit unit({128, 5, 1, RelocationMode::Mux});
    EXPECT_DEATH(unit.setContextSize(12), "power of two");
    EXPECT_DEATH(unit.setContextSize(64), "exceeds");
}

} // namespace
} // namespace rr::machine
