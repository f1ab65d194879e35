/**
 * @file
 * Tests for the NextRRM scheduler ring (Section 2.2) and the
 * priority-list extension.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "base/rng.hh"
#include "runtime/context_ring.hh"

namespace rr::runtime {
namespace {

TEST(ContextRing, EmptyAndSingle)
{
    ContextRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);

    ring.insert(8);
    EXPECT_FALSE(ring.empty());
    EXPECT_EQ(ring.current(), 8u);
    EXPECT_EQ(ring.advance(), 8u); // self-loop
    EXPECT_EQ(ring.nextOf(8), 8u);
}

TEST(ContextRing, RoundRobinOrder)
{
    ContextRing ring;
    ring.insert(0);
    ring.insert(32);
    ring.insert(64);
    // Members visited in a full cycle from current.
    const auto members = ring.members();
    ASSERT_EQ(members.size(), 3u);
    // A full traversal visits every member exactly once and returns.
    EXPECT_EQ(ring.current(), 0u);
    const uint32_t a = ring.advance();
    const uint32_t b = ring.advance();
    const uint32_t c = ring.advance();
    EXPECT_EQ(c, 0u); // back to start after size() advances
    EXPECT_NE(a, b);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
}

TEST(ContextRing, RemoveCurrentAdvances)
{
    ContextRing ring;
    ring.insert(1);
    ring.insert(2);
    ring.insert(3);
    const uint32_t cur = ring.current();
    const uint32_t next = ring.nextOf(cur);
    ring.remove(cur);
    EXPECT_EQ(ring.current(), next);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_FALSE(ring.contains(cur));
}

TEST(ContextRing, RemoveToEmpty)
{
    ContextRing ring;
    ring.insert(5);
    ring.remove(5);
    EXPECT_TRUE(ring.empty());
    ring.insert(9);
    EXPECT_EQ(ring.current(), 9u);
}

TEST(ContextRing, InterleavedInsertRemoveKeepsRingClosed)
{
    ContextRing ring;
    for (uint32_t i = 0; i < 16; ++i)
        ring.insert(i * 8);
    for (uint32_t i = 0; i < 8; ++i)
        ring.remove(i * 16); // remove every other member
    EXPECT_EQ(ring.size(), 8u);
    // Every remaining member is reachable in exactly size() steps.
    const uint32_t start = ring.current();
    size_t steps = 0;
    do {
        ring.advance();
        ++steps;
    } while (ring.current() != start && steps <= 16);
    EXPECT_EQ(steps, ring.size());
}

TEST(ContextRing, SingleMemberSurvivesChurn)
{
    // The degenerate one-context ring: every link points at itself,
    // and insert/remove churn must keep that invariant.
    ContextRing ring;
    ring.insert(16);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ring.advance(), 16u);
    ring.remove(16);
    EXPECT_TRUE(ring.empty());
    ring.insert(24);
    EXPECT_EQ(ring.current(), 24u);
    EXPECT_EQ(ring.nextOf(24), 24u);
    EXPECT_EQ(ring.members(), std::vector<uint32_t>{24});
}

TEST(ContextRing, UnlinkHeadWhileIterating)
{
    // Removing the current (head) member mid-iteration promotes its
    // successor without consuming an advance() — a scheduler that
    // calls advance() after removing the running context would
    // otherwise skip a ready thread.
    ContextRing ring;
    ring.insert(1);
    ring.insert(2);
    ring.insert(3);
    const uint32_t head = ring.current();
    const uint32_t succ = ring.nextOf(head);
    const uint32_t last = ring.nextOf(succ);
    ring.remove(head);
    EXPECT_EQ(ring.current(), succ);
    // The two survivors still form a closed 2-cycle.
    EXPECT_EQ(ring.advance(), last);
    EXPECT_EQ(ring.advance(), succ);
    EXPECT_EQ(ring.advance(), last);
    EXPECT_EQ(ring.nextOf(last), succ);
}

TEST(ContextRing, UnlinkPredecessorOfCurrent)
{
    ContextRing ring;
    ring.insert(1);
    ring.insert(2);
    ring.insert(3);
    const uint32_t head = ring.current();
    // tail is the member whose NextRRM is the head.
    uint32_t tail = head;
    while (ring.nextOf(tail) != head)
        tail = ring.nextOf(tail);
    ring.remove(tail);
    EXPECT_EQ(ring.current(), head);
    EXPECT_EQ(ring.size(), 2u);
    // The splice re-closed the ring around the removal.
    const uint32_t other = ring.nextOf(head);
    EXPECT_EQ(ring.nextOf(other), head);
}

TEST(ContextRing, RemoveDownToSingleThenIterate)
{
    ContextRing ring;
    ring.insert(10);
    ring.insert(20);
    ring.insert(30);
    ring.remove(20);
    ring.remove(30);
    // Exactly the single-member degenerate case again, reached by
    // removal instead of construction.
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.current(), 10u);
    EXPECT_EQ(ring.advance(), 10u);
    EXPECT_EQ(ring.nextOf(10), 10u);
}

TEST(ContextRingDeath, DuplicateInsertPanics)
{
    ContextRing ring;
    ring.insert(4);
    EXPECT_DEATH(ring.insert(4), "already in ring");
}

TEST(ContextRingDeath, RemoveAbsentPanics)
{
    ContextRing ring;
    ring.insert(4);
    EXPECT_DEATH(ring.remove(5), "not in ring");
}

TEST(ContextRingDeath, EmptyAccessPanics)
{
    ContextRing ring;
    EXPECT_DEATH(ring.current(), "empty");
    EXPECT_DEATH(ring.advance(), "empty");
}

TEST(PriorityRing, HigherLevelWins)
{
    PriorityRing rings(3);
    rings.insert(100, 2); // low priority
    rings.insert(200, 0); // high priority
    rings.insert(201, 0);
    EXPECT_EQ(rings.size(), 3u);
    // advance() always serves level 0 while it has members.
    for (int i = 0; i < 6; ++i) {
        const uint32_t got = rings.advance();
        EXPECT_TRUE(got == 200 || got == 201);
    }
    rings.remove(200);
    rings.remove(201);
    EXPECT_EQ(rings.advance(), 100u);
}

TEST(PriorityRing, LevelOf)
{
    PriorityRing rings(2);
    rings.insert(7, 1);
    EXPECT_EQ(rings.levelOf(7), 1);
    EXPECT_EQ(rings.levelOf(8), -1);
    rings.remove(7);
    EXPECT_TRUE(rings.empty());
}

TEST(PriorityRing, SingleMemberSelfLoops)
{
    PriorityRing rings(4);
    rings.insert(48, 3);
    EXPECT_EQ(rings.current(), 48u);
    EXPECT_EQ(rings.advance(), 48u);
    EXPECT_EQ(rings.advance(), 48u);
    rings.remove(48);
    EXPECT_TRUE(rings.empty());
}

TEST(PriorityRing, RemovingHeadOfHighestLevelFallsThrough)
{
    // Unlink the head of the active (highest) level while a lower
    // level holds members: dispatch must fall through immediately.
    PriorityRing rings(2);
    rings.insert(100, 1);
    rings.insert(200, 0);
    EXPECT_EQ(rings.current(), 200u);
    rings.remove(200);
    EXPECT_EQ(rings.current(), 100u);
    EXPECT_EQ(rings.advance(), 100u);
    // And promotion back: a new high-priority member preempts.
    rings.insert(201, 0);
    EXPECT_EQ(rings.current(), 201u);
}

TEST(PriorityRing, DirectLevelAccessSeesSameRing)
{
    PriorityRing rings(2);
    rings.insert(7, 1);
    EXPECT_TRUE(rings.level(0).empty());
    EXPECT_EQ(rings.level(1).current(), 7u);
    rings.level(1).remove(7);
    EXPECT_TRUE(rings.empty());
    EXPECT_EQ(rings.levelOf(7), -1);
}

TEST(PriorityRingDeath, EmptyAccessPanics)
{
    PriorityRing rings(2);
    EXPECT_DEATH(rings.current(), "empty");
    EXPECT_DEATH(rings.advance(), "empty");
}

TEST(PriorityRingDeath, DoubleQueuePanics)
{
    PriorityRing rings(2);
    rings.insert(7, 0);
    EXPECT_DEATH(rings.insert(7, 1), "already queued");
}

// ---------------------------------------------------------------------
// Differential tests: ContextRing's flat rrm-indexed links against a
// std::map-linked reference with the same insert-at-tail and
// remove-current semantics.

/** Reference ring: map-based links, checked step by step. */
class MapRing
{
  public:
    bool empty() const { return next_.empty(); }
    size_t size() const { return next_.size(); }
    bool contains(uint32_t rrm) const { return next_.count(rrm) != 0; }

    void
    insert(uint32_t rrm)
    {
        if (next_.empty()) {
            next_[rrm] = prev_[rrm] = current_ = rrm;
            return;
        }
        const uint32_t pred = prev_[current_];
        next_[pred] = rrm;
        prev_[rrm] = pred;
        next_[rrm] = current_;
        prev_[current_] = rrm;
    }

    void
    remove(uint32_t rrm)
    {
        const uint32_t succ = next_.at(rrm);
        const uint32_t pred = prev_.at(rrm);
        next_.erase(rrm);
        prev_.erase(rrm);
        if (succ == rrm) {
            current_ = 0;
            return;
        }
        next_[pred] = succ;
        prev_[succ] = pred;
        if (current_ == rrm)
            current_ = succ;
    }

    uint32_t current() const { return current_; }
    uint32_t advance() { return current_ = next_.at(current_); }
    uint32_t nextOf(uint32_t rrm) const { return next_.at(rrm); }

    std::vector<uint32_t>
    members() const
    {
        std::vector<uint32_t> out;
        if (empty())
            return out;
        uint32_t at = current_;
        do {
            out.push_back(at);
            at = next_.at(at);
        } while (at != current_);
        return out;
    }

    /** Member @p index in map (rrm) order. */
    uint32_t
    nth(size_t index) const
    {
        auto it = next_.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(index));
        return it->first;
    }

  private:
    std::map<uint32_t, uint32_t> next_;
    std::map<uint32_t, uint32_t> prev_;
    uint32_t current_ = 0;
};

void
expectSame(const ContextRing &ring, const MapRing &ref)
{
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    if (!ref.empty()) {
        ASSERT_EQ(ring.current(), ref.current());
    }
    ASSERT_EQ(ring.members(), ref.members());
}

/**
 * One random step on both rings: insert an absent rrm below
 * @p rrm_bound, remove a member (the current one a quarter of the
 * time), advance, or query nextOf.
 */
void
randomStep(Rng &rng, ContextRing &ring, MapRing &ref, uint32_t rrm_bound)
{
    const uint64_t op = rng.nextRange(0, 3);
    if (op == 0 || ref.empty()) {
        const uint32_t rrm =
            static_cast<uint32_t>(rng.nextRange(0, rrm_bound - 1));
        ASSERT_EQ(ring.contains(rrm), ref.contains(rrm));
        if (ref.contains(rrm))
            return;
        ring.insert(rrm);
        ref.insert(rrm);
    } else if (op == 1) {
        const uint32_t rrm =
            rng.nextRange(0, 3) == 0
                ? ref.current()
                : ref.nth(rng.nextRange(0, ref.size() - 1));
        ring.remove(rrm);
        ref.remove(rrm);
        ASSERT_FALSE(ring.contains(rrm));
    } else if (op == 2) {
        ASSERT_EQ(ring.advance(), ref.advance());
    } else {
        const uint32_t rrm = ref.nth(rng.nextRange(0, ref.size() - 1));
        ASSERT_EQ(ring.nextOf(rrm), ref.nextOf(rrm));
    }
}

TEST(ContextRingDifferential, RandomOpsMatchMapReference)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        ContextRing ring;
        MapRing ref;
        // Dense small rrms (a 128-register file) for most steps, then
        // a sparse wide range that forces the link arrays to grow.
        for (int step = 0; step < 4000; ++step) {
            const uint32_t bound = step < 3000 ? 128 : 5000;
            ASSERT_NO_FATAL_FAILURE(randomStep(rng, ring, ref, bound));
            ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
        }
    }
}

TEST(ContextRingDifferential, GrowthAboveEveryEarlierRrm)
{
    // Each insert lands above every earlier rrm, so each one grows
    // the link arrays; links to lower members must survive growth.
    ContextRing ring;
    MapRing ref;
    for (const uint32_t rrm : {3u, 4u, 17u, 64u, 1000u, 65536u}) {
        ring.insert(rrm);
        ref.insert(rrm);
        ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
        EXPECT_FALSE(ring.contains(rrm + 1));
    }
    EXPECT_EQ(ring.nextOf(65536), 3u);
    ring.remove(1000);
    ref.remove(1000);
    ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
    EXPECT_EQ(ring.nextOf(64), 65536u);
}

TEST(ContextRingDifferential, RemoveToEmptyThenReinsertElsewhere)
{
    ContextRing ring;
    MapRing ref;
    for (const uint32_t rrm : {40u, 8u, 24u}) {
        ring.insert(rrm);
        ref.insert(rrm);
    }
    ring.advance();
    ref.advance();
    for (const uint32_t rrm : {8u, 40u, 24u}) {
        ring.remove(rrm);
        ref.remove(rrm);
        ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
    }
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.contains(40));
    EXPECT_FALSE(ring.contains(24));

    // A different rrm, below the earlier ones, becomes a fresh
    // single-member ring; the old members left no stale links.
    ring.insert(4);
    ref.insert(4);
    ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
    EXPECT_EQ(ring.nextOf(4), 4u);
    ring.insert(40);
    ref.insert(40);
    ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
    EXPECT_EQ(ring.advance(), 40u);
}

TEST(ContextRingDifferential, RrmZero)
{
    // rrm 0 is a valid member, distinct from the empty ring's
    // current value of 0.
    ContextRing ring;
    MapRing ref;
    EXPECT_FALSE(ring.contains(0));
    ring.insert(0);
    ref.insert(0);
    EXPECT_TRUE(ring.contains(0));
    ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
    ring.insert(16);
    ref.insert(16);
    ring.remove(0);
    ref.remove(0);
    ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
    EXPECT_EQ(ring.current(), 16u);
    EXPECT_FALSE(ring.contains(0));
    ring.insert(0);
    ref.insert(0);
    ASSERT_NO_FATAL_FAILURE(expectSame(ring, ref));
    EXPECT_EQ(ring.nextOf(16), 0u);
    EXPECT_EQ(ring.nextOf(0), 16u);
}

TEST(ContextRingDifferential, PriorityRingThreeLevels)
{
    // Mutate a 3-level PriorityRing through both its own insert()
    // and direct level() access; each level must match its own
    // reference, and current() must serve the highest nonempty one.
    for (uint64_t seed = 11; seed <= 14; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        PriorityRing rings(3);
        MapRing refs[3];
        for (int step = 0; step < 3000; ++step) {
            const unsigned l =
                static_cast<unsigned>(rng.nextRange(0, 2));
            const uint32_t rrm =
                static_cast<uint32_t>(rng.nextRange(0, 95));
            const int held = rings.levelOf(rrm);
            const uint64_t op = rng.nextRange(0, 3);
            if (held < 0 && op == 0) {
                rings.insert(rrm, l);
                refs[l].insert(rrm);
            } else if (held < 0 && op == 1) {
                rings.level(l).insert(rrm);
                refs[l].insert(rrm);
            } else if (held >= 0 && op == 2) {
                rings.remove(rrm);
                refs[held].remove(rrm);
            } else if (held >= 0) {
                rings.level(static_cast<unsigned>(held)).remove(rrm);
                refs[held].remove(rrm);
            } else if (!rings.empty()) {
                const uint32_t got = rings.advance();
                for (MapRing &ref : refs) {
                    if (!ref.empty()) {
                        ASSERT_EQ(got, ref.advance());
                        break;
                    }
                }
            }

            size_t total = 0;
            for (unsigned i = 0; i < 3; ++i) {
                ASSERT_NO_FATAL_FAILURE(
                    expectSame(rings.level(i), refs[i]));
                total += refs[i].size();
            }
            ASSERT_EQ(rings.size(), total);
            ASSERT_EQ(rings.empty(), total == 0);
            for (const MapRing &ref : refs) {
                if (!ref.empty()) {
                    ASSERT_EQ(rings.current(), ref.current());
                    break;
                }
            }
        }
    }
}

} // namespace
} // namespace rr::runtime
