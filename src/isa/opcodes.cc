#include "isa/opcodes.hh"

#include <array>
#include <string_view>
#include <unordered_map>

#include "base/logging.hh"

namespace rr::isa {

namespace {

struct OpcodeEntry
{
    const char *mnemonic;
    Format format;
};

// Table indexed by opcode value; order must match the Opcode enum.
constexpr std::array<OpcodeEntry, numOpcodes> opcodeTable = {{
    {"nop", Format::None},
    {"halt", Format::None},

    {"add", Format::R3},
    {"sub", Format::R3},
    {"and", Format::R3},
    {"or", Format::R3},
    {"xor", Format::R3},
    {"sll", Format::R3},
    {"srl", Format::R3},
    {"sra", Format::R3},
    {"slt", Format::R3},
    {"sltu", Format::R3},

    {"addi", Format::I},
    {"andi", Format::I},
    {"ori", Format::I},
    {"xori", Format::I},
    {"slti", Format::I},
    {"slli", Format::I},
    {"srli", Format::I},
    {"srai", Format::I},

    {"lui", Format::UI},

    {"ld", Format::I},
    {"st", Format::I},

    {"beq", Format::B},
    {"bne", Format::B},
    {"blt", Format::B},
    {"bge", Format::B},

    {"jal", Format::J},
    {"jalr", Format::I},
    {"jmp", Format::R1S},

    {"ldrrm", Format::R1S},
    {"rdrrm", Format::R1D},
    {"ldrrmx", Format::Rs1Imm},

    {"mfpsw", Format::R1D},
    {"mtpsw", Format::R1S},

    {"ff1", Format::R2},

    {"fault", Format::Imm},
}};

} // namespace

Format
formatOf(Opcode op)
{
    const auto idx = static_cast<unsigned>(op);
    rr_assert(idx < numOpcodes, "bad opcode value ", idx);
    return opcodeTable[idx].format;
}

const char *
mnemonicOf(Opcode op)
{
    const auto idx = static_cast<unsigned>(op);
    rr_assert(idx < numOpcodes, "bad opcode value ", idx);
    return opcodeTable[idx].mnemonic;
}

bool
opcodeFromMnemonic(std::string_view mnemonic, Opcode &out)
{
    // Keys view the table's string literals.
    static const auto lookup = [] {
        std::unordered_map<std::string_view, Opcode> m;
        for (unsigned i = 0; i < numOpcodes; ++i)
            m.emplace(opcodeTable[i].mnemonic, static_cast<Opcode>(i));
        return m;
    }();
    const auto it = lookup.find(mnemonic);
    if (it == lookup.end())
        return false;
    out = it->second;
    return true;
}

FormatInfo
formatInfo(Format fmt)
{
    switch (fmt) {
      case Format::None:
        return {false, false, false, false, 0, false};
      case Format::R3:
        return {true, true, true, false, 0, false};
      case Format::R2:
        return {true, true, false, false, 0, false};
      case Format::R1D:
        return {true, false, false, false, 0, false};
      case Format::R1S:
        return {false, true, false, false, 0, false};
      case Format::I:
        return {true, true, false, true, 12, true};
      case Format::B:
        return {false, true, true, true, 12, true};
      case Format::J:
        return {true, false, false, true, 18, true};
      case Format::UI:
        return {true, false, false, true, 18, false};
      case Format::Imm:
        return {false, false, false, true, 12, false};
      case Format::Rs1Imm:
        return {false, true, false, true, 12, false};
    }
    rr_panic("unhandled format");
}

bool
immFits(const FormatInfo &info, int64_t imm)
{
    const int64_t span = int64_t{1} << info.immBits;
    return info.immSigned ? imm >= -span / 2 && imm < span / 2
                          : imm >= 0 && imm < span;
}

} // namespace rr::isa
