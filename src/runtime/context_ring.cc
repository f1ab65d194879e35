#include "runtime/context_ring.hh"

#include "base/logging.hh"

namespace rr::runtime {

void
ContextRing::grow(uint32_t rrm)
{
    next_.resize(rrm + 1, kAbsent);
    prev_.resize(rrm + 1, kAbsent);
}

uint32_t
ContextRing::nextOf(uint32_t rrm) const
{
    rr_assert(contains(rrm), "rrm ", rrm, " not in ring");
    return next_[rrm];
}

std::vector<uint32_t>
ContextRing::members() const
{
    std::vector<uint32_t> out;
    if (empty())
        return out;
    out.reserve(size_);
    uint32_t at = current_;
    do {
        out.push_back(at);
        at = next_[at];
    } while (at != current_);
    return out;
}

PriorityRing::PriorityRing(unsigned levels)
    : rings_(levels)
{
    rr_assert(levels >= 1, "need at least one priority level");
}

size_t
PriorityRing::size() const
{
    size_t n = 0;
    for (const auto &ring : rings_)
        n += ring.size();
    return n;
}

ContextRing &
PriorityRing::level(unsigned level)
{
    rr_assert(level < rings_.size(), "bad priority level ", level);
    return rings_[level];
}

} // namespace rr::runtime
