#include "analysis/static/liveness.hh"

#include <deque>

#include "base/logging.hh"

namespace rr::lint {

using isa::Instruction;
using isa::Opcode;

UseDef
useDef(const Instruction &inst)
{
    UseDef ud;
    for (const isa::RegisterOperand &op : isa::registerOperands(inst))
        (op.isWrite ? ud.defs : ud.uses) |= uint64_t{1} << (op.reg & 63);
    return ud;
}

Liveness::Liveness(const Cfg &cfg, const LivenessOptions &options)
    : cfg_(cfg), options_(options)
{
    const size_t num_blocks = cfg_.blocks().size();
    liveIn_.assign(num_blocks, 0);
    liveOut_.assign(num_blocks, 0);
    liveBefore_.assign(cfg_.instructions().size(), 0);

    // Backward fixpoint: liveOut(b) = union of liveIn(succ).
    std::deque<uint32_t> work;
    std::vector<bool> queued(num_blocks, false);
    for (uint32_t id = 0; id < num_blocks; ++id) {
        work.push_back(id);
        queued[id] = true;
    }
    while (!work.empty()) {
        const uint32_t id = work.front();
        work.pop_front();
        queued[id] = false;
        const BasicBlock &block = cfg_.blocks()[id];

        uint64_t out = 0;
        for (const uint32_t succ : block.succs)
            out |= liveIn_[succ];
        liveOut_[id] = out;
        const uint64_t in = transferBlock(block, out, false);
        if (in == liveIn_[id])
            continue;
        liveIn_[id] = in;
        for (const uint32_t pred : block.preds) {
            if (!queued[pred]) {
                work.push_back(pred);
                queued[pred] = true;
            }
        }
    }

    // Final recording pass for per-instruction live sets and window
    // entry requirements.
    for (const BasicBlock &block : cfg_.blocks())
        transferBlock(block, liveOut_[block.id], true);
}

uint64_t
Liveness::liveIn(uint32_t block_id) const
{
    rr_assert(block_id < liveIn_.size(), "bad block id");
    return liveIn_[block_id];
}

uint64_t
Liveness::liveOut(uint32_t block_id) const
{
    rr_assert(block_id < liveOut_.size(), "bad block id");
    return liveOut_[block_id];
}

uint64_t
Liveness::liveBefore(uint32_t addr) const
{
    rr_assert(cfg_.contains(addr), "address outside image");
    return liveBefore_[addr - cfg_.program().base];
}

std::vector<bool>
Liveness::effectPoints(const BasicBlock &block) const
{
    std::vector<bool> effect(block.size(), false);
    if (!options_.windowBarriers)
        return effect;
    for (uint32_t addr = block.begin; addr < block.end; ++addr) {
        const CfgInstruction &ci = cfg_.at(addr);
        const bool loads_bank0 =
            ci.inst.op == Opcode::LDRRM ||
            (ci.inst.op == Opcode::LDRRMX && ci.inst.imm == 0);
        if (!loads_bank0)
            continue;
        const uint32_t point = addr + options_.delaySlots + 1;
        if (point < block.end)
            effect[point - block.begin] = true;
        // A point at or past block.end straddles the block boundary;
        // the lint pass flags that hazard, liveness stays
        // conservative.
    }
    return effect;
}

uint64_t
Liveness::transferBlock(const BasicBlock &block, uint64_t live_out,
                        bool record)
{
    const std::vector<bool> effect = effectPoints(block);
    const uint32_t base = cfg_.program().base;

    uint64_t live = live_out;
    for (uint32_t addr = block.end; addr-- > block.begin;) {
        const UseDef ud = useDef(cfg_.at(addr).inst);
        live = ud.uses | (live & ~ud.defs);
        if (record)
            liveBefore_[addr - base] = live;
        if (effect[addr - block.begin]) {
            // The instruction at `addr` is the first of a new RRM
            // window: its live-before set is the new context's entry
            // requirement, and nothing propagates into the old
            // window (different physical registers).
            if (record)
                windowEntryLive_[addr] = live;
            live = 0;
        }
    }
    return live;
}

} // namespace rr::lint
