/**
 * @file
 * The `reloc` fuzz kind: RelocationUnit::relocate() vs the
 * memoized table() under a script of mask and context-size changes.
 */

#include "fuzz/kind.hh"

#include "exp/report.hh"
#include "machine/relocation_unit.hh"

namespace rr::fuzz {

namespace {

RelocSample
genReloc(Rng &rng)
{
    RelocSample s;
    s.numRegs = 8u << rng.nextRange(0, 5); // 8..256
    s.operandWidth = static_cast<unsigned>(
        rng.nextRange(1, std::min(6u, log2Floor(s.numRegs))));
    s.banks = 1;
    if (s.operandWidth >= 2 && chance(rng, 30))
        s.banks = s.operandWidth >= 3 && chance(rng, 40) ? 4 : 2;
    s.mode = static_cast<uint8_t>(rng.nextRange(0, 2));

    // Mux/Add consult the context size; open with a definite one.
    if (s.mode != 0) {
        RelocOp op;
        op.kind = RelocOp::SetSize;
        op.value = 1u << rng.nextRange(0, s.operandWidth);
        s.ops.push_back(op);
    }

    const uint64_t n = rng.nextRange(1, 40);
    for (uint64_t i = 0; i < n; ++i) {
        RelocOp op;
        if (chance(rng, 15)) {
            op.kind = RelocOp::SetSize;
            op.value = 1u << rng.nextRange(0, s.operandWidth);
        } else {
            op.kind = RelocOp::SetMask;
            op.bank = static_cast<uint8_t>(rng.nextRange(0, s.banks - 1));
            uint32_t mask =
                static_cast<uint32_t>(rng.next() % s.numRegs);
            if (chance(rng, 50)) {
                // Size-aligned masks, the paper's intended usage.
                const uint32_t align =
                    1u << rng.nextRange(0, s.operandWidth);
                mask &= ~(align - 1);
            }
            // Revisit earlier masks often enough to exercise both
            // the 16-slot table cache and the single-bank memo.
            if (i >= 4 && chance(rng, 35)) {
                const auto &prev =
                    s.ops[rng.nextRange(0, s.ops.size() - 1)];
                if (prev.kind == RelocOp::SetMask)
                    mask = prev.value;
            }
            op.value = mask;
        }
        s.ops.push_back(op);
    }
    return s;
}

Problems
checkReloc(const RelocSample &s)
{
    Problems problems;
    machine::RelocationUnit unit(geometryOf(s));

    const unsigned table_size = unit.tableSize();
    for (size_t i = 0; i < s.ops.size(); ++i) {
        const RelocOp &op = s.ops[i];
        if (op.kind == RelocOp::SetMask)
            unit.setMask(op.value, op.bank);
        else
            unit.setContextSize(op.value);

        const machine::RelocationResult *table = unit.table();
        for (unsigned operand = 0; operand < table_size; ++operand) {
            const machine::RelocationResult ref =
                unit.relocate(operand);
            if (table[operand].physical != ref.physical ||
                table[operand].ok != ref.ok) {
                problems.push_back(exp::strf(
                    "reloc: after op %zu, operand %u: table() gives "
                    "phys=%u ok=%d but relocate() gives phys=%u "
                    "ok=%d",
                    i, operand, table[operand].physical,
                    table[operand].ok ? 1 : 0, ref.physical,
                    ref.ok ? 1 : 0));
                if (problems.size() >= 4)
                    return problems;
            }
        }
    }
    return problems;
}

void
shrinkReloc(RelocSample &s, Budget &budget)
{
    shrinkList(s.ops, budget, [&](const std::vector<RelocOp> &ops) {
        RelocSample candidate = s;
        candidate.ops = ops;
        return AnySample{candidate};
    });
}

constexpr Field<RelocSample> kFields[] = {
    {"numRegs", &RelocSample::numRegs, 2, 1024},
    {"operandWidth", &RelocSample::operandWidth, 1, 6},
    {"banks", &RelocSample::banks, 1, 8},
    {"mode", &RelocSample::mode, 0, 2},
};

void
writeOps(const RelocSample &s, std::string &out)
{
    for (const RelocOp &op : s.ops) {
        if (op.kind == RelocOp::SetMask)
            out += "op mask " + std::to_string(op.value) + ' ' +
                   std::to_string(op.bank) + '\n';
        else
            out += "op size " + std::to_string(op.value) + '\n';
    }
}

bool
readOp(const Line &line, RelocSample &s, std::string &)
{
    if (line.key != "op")
        return false;
    const std::vector<std::string> w = splitWords(line.rest);
    RelocOp op;
    uint64_t value = 0;
    if (w.size() == 3 && w[0] == "mask") {
        uint64_t bank = 0;
        if (!parseU64(w[1], UINT32_MAX, value) ||
            !parseU64(w[2], UINT8_MAX, bank))
            return false;
        op.kind = RelocOp::SetMask;
        op.bank = static_cast<uint8_t>(bank);
    } else if (w.size() == 2 && w[0] == "size") {
        if (!parseU64(w[1], UINT32_MAX, value))
            return false;
        op.kind = RelocOp::SetSize;
    } else {
        return false;
    }
    op.value = static_cast<uint32_t>(value);
    s.ops.push_back(op);
    return true;
}

bool
validateReloc(const RelocSample &s, std::string &error)
{
    if (!inRange(s.ops.size(), 0, 100000, "op count", error))
        return false;
    error = geometryOf(s).error();
    if (!error.empty())
        return false;
    for (const RelocOp &op : s.ops) {
        if (op.kind == RelocOp::SetMask) {
            if (op.bank >= s.banks) {
                error = "op bank out of range";
                return false;
            }
        } else if (!pow2(op.value) ||
                   op.value > (1u << s.operandWidth)) {
            error = "context size not a power of two within 2^w";
            return false;
        }
    }
    return true;
}

constexpr Codec<RelocSample> kCodec{kFields, writeOps, readOp, validateReloc};

} // namespace

constinit const KindOps relocKind =
    kindOps<genReloc, checkReloc, shrinkReloc, kCodec>("reloc");

} // namespace rr::fuzz
