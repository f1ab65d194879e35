#include "runtime/context_ring.hh"

#include "base/logging.hh"

namespace rr::runtime {

void
ContextRing::insert(uint32_t rrm)
{
    rr_assert(rrm != kAbsent, "rrm ", rrm, " is the absent sentinel");
    rr_assert(!contains(rrm), "rrm ", rrm, " already in ring");
    if (rrm >= next_.size()) {
        next_.resize(rrm + 1, kAbsent);
        prev_.resize(rrm + 1, kAbsent);
    }
    ++size_;
    if (size_ == 1) {
        next_[rrm] = rrm;
        prev_[rrm] = rrm;
        current_ = rrm;
        return;
    }
    // Insert at the tail of the round-robin order (just before
    // current): every member that is already waiting runs before the
    // newcomer. Inserting after current instead would let freshly
    // woken contexts monopolize the processor and starve ready ones.
    const uint32_t pred = prev_[current_];
    next_[pred] = rrm;
    prev_[rrm] = pred;
    next_[rrm] = current_;
    prev_[current_] = rrm;
}

void
ContextRing::remove(uint32_t rrm)
{
    rr_assert(contains(rrm), "rrm ", rrm, " not in ring");

    const uint32_t succ = next_[rrm];
    const uint32_t pred = prev_[rrm];
    next_[rrm] = kAbsent;
    prev_[rrm] = kAbsent;
    --size_;

    if (succ == rrm) {
        // Last member.
        current_ = 0;
        return;
    }
    next_[pred] = succ;
    prev_[succ] = pred;
    if (current_ == rrm)
        current_ = succ;
}

uint32_t
ContextRing::current() const
{
    rr_assert(!empty(), "ring is empty");
    return current_;
}

uint32_t
ContextRing::advance()
{
    rr_assert(!empty(), "ring is empty");
    current_ = next_[current_];
    return current_;
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

void
PriorityRing::insert(uint32_t rrm, unsigned level)
{
    rr_assert(level < rings_.size(), "bad priority level ", level);
    rr_assert(levelOf(rrm) < 0, "rrm ", rrm, " already queued");
    rings_[level].insert(rrm);
}

void
PriorityRing::remove(uint32_t rrm)
{
    const int level = levelOf(rrm);
    rr_assert(level >= 0, "rrm ", rrm, " not queued");
    rings_[static_cast<unsigned>(level)].remove(rrm);
}

bool
PriorityRing::empty() const
{
    for (const auto &ring : rings_) {
        if (!ring.empty())
            return false;
    }
    return true;
}

size_t
PriorityRing::size() const
{
    size_t n = 0;
    for (const auto &ring : rings_)
        n += ring.size();
    return n;
}

uint32_t
PriorityRing::current() const
{
    for (const auto &ring : rings_) {
        if (!ring.empty())
            return ring.current();
    }
    rr_panic("all priority levels are empty");
}

uint32_t
PriorityRing::advance()
{
    for (auto &ring : rings_) {
        if (!ring.empty())
            return ring.advance();
    }
    rr_panic("all priority levels are empty");
}

int
PriorityRing::levelOf(uint32_t rrm) const
{
    for (size_t i = 0; i < rings_.size(); ++i) {
        if (rings_[i].contains(rrm))
            return static_cast<int>(i);
    }
    return -1;
}

ContextRing &
PriorityRing::level(unsigned level)
{
    rr_assert(level < rings_.size(), "bad priority level ", level);
    return rings_[level];
}

} // namespace rr::runtime
