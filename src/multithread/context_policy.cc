#include "multithread/context_policy.hh"

#include <sstream>

#include "base/logging.hh"
#include "ckpt/io.hh"

namespace rr::mt {

using runtime::Context;

void
ContextPolicy::adopt(const Context &)
{
    throw ckpt::Error("checkpoint restore is not supported for "
                      "custom context policy \"" +
                      describe() + "\"");
}

FlexibleContextPolicy::FlexibleContextPolicy(unsigned num_regs,
                                             unsigned operand_width,
                                             unsigned min_size)
    : allocator_(num_regs, operand_width, min_size)
{
}

std::optional<Context>
FlexibleContextPolicy::allocate(unsigned regs_used)
{
    return allocator_.allocate(regs_used);
}

unsigned
FlexibleContextPolicy::requiredSpace(unsigned regs_used) const
{
    return allocator_.contextSizeFor(regs_used);
}

void
FlexibleContextPolicy::release(const Context &context)
{
    allocator_.release(context);
}

void
FlexibleContextPolicy::adopt(const Context &context)
{
    allocator_.reserve(context);
}

unsigned
FlexibleContextPolicy::numRegs() const
{
    return allocator_.numRegs();
}

unsigned
FlexibleContextPolicy::freeRegs() const
{
    return allocator_.freeRegs();
}

std::string
FlexibleContextPolicy::describe() const
{
    std::ostringstream os;
    os << "flexible(F=" << allocator_.numRegs()
       << ", sizes " << allocator_.minSize() << ".."
       << allocator_.maxSize() << ")";
    return os.str();
}

FixedContextPolicy::FixedContextPolicy(unsigned num_regs,
                                       unsigned context_regs)
    : numRegs_(num_regs),
      contextRegs_(context_regs),
      slotFree_(num_regs / context_regs, true),
      freeSlots_(static_cast<unsigned>(slotFree_.size()))
{
    rr_assert(context_regs > 0 && num_regs % context_regs == 0,
              "file size ", num_regs,
              " not a multiple of the context size ", context_regs);
    rr_assert(!slotFree_.empty(), "no hardware context slots");
}

std::optional<Context>
FixedContextPolicy::allocate(unsigned regs_used)
{
    if (regs_used > contextRegs_)
        return std::nullopt;
    for (size_t slot = 0; slot < slotFree_.size(); ++slot) {
        if (!slotFree_[slot])
            continue;
        slotFree_[slot] = false;
        --freeSlots_;
        Context context;
        context.rrm = static_cast<uint32_t>(slot) * contextRegs_;
        context.size = contextRegs_;
        return context;
    }
    return std::nullopt;
}

unsigned
FixedContextPolicy::requiredSpace(unsigned regs_used) const
{
    return regs_used <= contextRegs_ ? contextRegs_ : 0;
}

void
FixedContextPolicy::release(const Context &context)
{
    rr_assert(context.size == contextRegs_ &&
                  context.rrm % contextRegs_ == 0,
              "context was not allocated by this policy");
    const unsigned slot = context.rrm / contextRegs_;
    rr_assert(slot < slotFree_.size(), "bad slot ", slot);
    rr_assert(!slotFree_[slot], "double free of slot ", slot);
    slotFree_[slot] = true;
    ++freeSlots_;
}

void
FixedContextPolicy::adopt(const Context &context)
{
    rr_assert(context.size == contextRegs_ &&
                  context.rrm % contextRegs_ == 0,
              "context was not allocated by this policy");
    const unsigned slot = context.rrm / contextRegs_;
    rr_assert(slot < slotFree_.size(), "bad slot ", slot);
    rr_assert(slotFree_[slot], "adopt of occupied slot ", slot);
    slotFree_[slot] = false;
    --freeSlots_;
}

unsigned
FixedContextPolicy::numRegs() const
{
    return numRegs_;
}

unsigned
FixedContextPolicy::freeRegs() const
{
    return freeSlots_ * contextRegs_;
}

std::string
FixedContextPolicy::describe() const
{
    std::ostringstream os;
    os << "fixed(F=" << numRegs_ << ", " << slotFree_.size() << " x "
       << contextRegs_ << " regs)";
    return os.str();
}

AddContextPolicy::AddContextPolicy(unsigned num_regs)
    : allocator_(num_regs)
{
}

std::optional<Context>
AddContextPolicy::allocate(unsigned regs_used)
{
    rr_assert(regs_used > 0, "thread uses no registers");
    const auto interval = allocator_.allocate(regs_used);
    if (!interval)
        return std::nullopt;
    Context context;
    context.rrm = interval->base; // an ADD base, not an OR mask
    context.size = interval->size;
    return context;
}

unsigned
AddContextPolicy::requiredSpace(unsigned regs_used) const
{
    return regs_used;
}

void
AddContextPolicy::release(const Context &context)
{
    allocator_.release({context.rrm, context.size});
}

void
AddContextPolicy::adopt(const Context &context)
{
    allocator_.reserve({context.rrm, context.size});
}

unsigned
AddContextPolicy::numRegs() const
{
    return allocator_.numRegs();
}

unsigned
AddContextPolicy::freeRegs() const
{
    return allocator_.freeRegs();
}

std::string
AddContextPolicy::describe() const
{
    std::ostringstream os;
    os << "add-relocation(F=" << allocator_.numRegs()
       << ", exact-size contexts)";
    return os.str();
}

} // namespace rr::mt
