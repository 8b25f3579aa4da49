// Tests for the SPMD runtime: launch, rank identity, virtual clocks,
// max-reducing barrier, mailboxes, failure poisoning.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "rt/agg.hpp"
#include "rt/arena.hpp"
#include "rt/payload.hpp"
#include "rt/runtime.hpp"

namespace {

using cid::rt::RankCtx;
using cid::simnet::MachineModel;

/// Key admitting every clean point-to-point envelope on context 0 (the
/// channel and context a default-constructed Envelope travels on).
cid::rt::MatchKey any_message() {
  cid::rt::MatchKey key;
  key.src = cid::rt::kMatchAny;
  key.tag = cid::rt::kMatchAny;
  return key;
}

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> visits{0};
  std::array<std::atomic<int>, 8> per_rank{};
  cid::rt::run(8, MachineModel::zero(), [&](RankCtx& ctx) {
    visits.fetch_add(1);
    per_rank[static_cast<std::size_t>(ctx.rank())].fetch_add(1);
    EXPECT_EQ(ctx.nranks(), 8);
  });
  EXPECT_EQ(visits.load(), 8);
  for (const auto& count : per_rank) EXPECT_EQ(count.load(), 1);
}

TEST(Runtime, SingleRankWorldWorks) {
  auto result = cid::rt::run(1, MachineModel::zero(),
                             [](RankCtx& ctx) { ctx.barrier(); });
  EXPECT_EQ(result.final_clocks.size(), 1u);
}

TEST(Runtime, RejectsZeroRanks) {
  EXPECT_THROW(cid::rt::run(0, MachineModel::zero(), [](RankCtx&) {}),
               cid::CidError);
}

TEST(Runtime, CurrentCtxOutsideRegionThrows) {
  EXPECT_THROW(cid::rt::current_ctx(), cid::CidError);
  EXPECT_FALSE(cid::rt::in_spmd_region());
}

TEST(Runtime, CurrentCtxInsideRegionMatchesArgument) {
  cid::rt::run(4, MachineModel::zero(), [](RankCtx& ctx) {
    EXPECT_TRUE(cid::rt::in_spmd_region());
    EXPECT_EQ(&cid::rt::current_ctx(), &ctx);
  });
}

TEST(Runtime, ChargeComputeAdvancesOnlyLocalClock) {
  auto result = cid::rt::run(3, MachineModel::zero(), [](RankCtx& ctx) {
    ctx.charge_compute(static_cast<double>(ctx.rank()) * 1e-3);
  });
  EXPECT_DOUBLE_EQ(result.final_clocks[0], 0.0);
  EXPECT_DOUBLE_EQ(result.final_clocks[1], 1e-3);
  EXPECT_DOUBLE_EQ(result.final_clocks[2], 2e-3);
  EXPECT_DOUBLE_EQ(result.makespan(), 2e-3);
}

TEST(Runtime, BarrierMaxReducesClocks) {
  MachineModel model = MachineModel::zero();
  model.barrier_base = 5e-6;
  auto result = cid::rt::run(4, model, [](RankCtx& ctx) {
    ctx.charge_compute(static_cast<double>(ctx.rank()) * 1e-3);
    ctx.barrier();
  });
  // Everyone leaves the barrier at max(3ms) + barrier cost.
  for (double clock : result.final_clocks) {
    EXPECT_DOUBLE_EQ(clock, 3e-3 + 5e-6);
  }
}

TEST(Runtime, RepeatedBarriersStayConsistent) {
  auto result = cid::rt::run(5, MachineModel::zero(), [](RankCtx& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.charge_compute(1e-6);
      ctx.barrier();
    }
  });
  for (double clock : result.final_clocks) {
    EXPECT_NEAR(clock, 50e-6, 1e-12);
  }
}

TEST(Runtime, ExceptionOnOneRankPropagatesAndUnblocksOthers) {
  EXPECT_THROW(
      cid::rt::run(4, MachineModel::zero(),
                   [](RankCtx& ctx) {
                     if (ctx.rank() == 2) {
                       throw cid::CidError(cid::ErrorCode::InvalidArgument,
                                           "boom");
                     }
                     ctx.barrier();  // would deadlock without poisoning
                   }),
      cid::CidError);
}

TEST(Runtime, ExceptionWhileWaitingOnMailboxUnblocks) {
  EXPECT_THROW(cid::rt::run(2, MachineModel::zero(),
                            [](RankCtx& ctx) {
                              if (ctx.rank() == 0) {
                                throw std::runtime_error("fail");
                              }
                              // Rank 1 waits forever for a message that will
                              // never come; poisoning must wake it.
                              ctx.mailbox().wait_extract(any_message());
                            }),
               std::runtime_error);
}

TEST(Runtime, NestedRunIsRejected) {
  EXPECT_THROW(cid::rt::run(1, MachineModel::zero(),
                            [](RankCtx&) {
                              cid::rt::run(1, MachineModel::zero(),
                                           [](RankCtx&) {});
                            }),
               cid::CidError);
}

TEST(Mailbox, DeliversInArrivalOrder) {
  cid::rt::run(2, MachineModel::zero(), [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        cid::rt::Envelope envelope;
        envelope.src = 0;
        envelope.tag = i;
        ctx.world().mailbox(1).push(std::move(envelope));
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        auto envelope = ctx.mailbox().wait_extract(any_message());
        EXPECT_EQ(envelope.tag, i);
      }
    }
  });
}

TEST(Mailbox, PredicateSelectsAcrossQueue) {
  cid::rt::run(2, MachineModel::zero(), [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int tag : {7, 3, 9}) {
        cid::rt::Envelope envelope;
        envelope.src = 0;
        envelope.tag = tag;
        ctx.world().mailbox(1).push(std::move(envelope));
      }
    } else {
      cid::rt::MatchKey tag_nine = any_message();
      tag_nine.tag = 9;
      auto nine = ctx.mailbox().wait_extract(tag_nine);
      EXPECT_EQ(nine.tag, 9);
      auto seven = ctx.mailbox().wait_extract(any_message());
      EXPECT_EQ(seven.tag, 7);  // arrival order among the rest
      EXPECT_EQ(ctx.mailbox().size(), 1u);
    }
  });
}

TEST(Mailbox, TryExtractReturnsEmptyWhenNoMatch) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    auto result = ctx.mailbox().try_extract(any_message());
    EXPECT_FALSE(result.has_value());
  });
}

// Helper for the MatchKey tests: queue one envelope into the calling rank's
// own mailbox.
void push_self(RankCtx& ctx, int src, int tag, cid::rt::Channel channel,
               int context, bool faulted = false) {
  cid::rt::Envelope envelope;
  envelope.src = src;
  envelope.tag = tag;
  envelope.channel = channel;
  envelope.context = context;
  envelope.faulted = faulted;
  ctx.mailbox().push(std::move(envelope));
}

TEST(MatchKey, ExactExtractPreservesNonOvertakingOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    // Three messages from (src=2, tag=5) interleaved with unrelated traffic
    // on the same channel+context; exact extraction must see them in arrival
    // (push) order - MPI's non-overtaking guarantee.
    using cid::rt::Channel;
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 3, 5, Channel::MpiPointToPoint, 0);
    push_self(ctx, 2, 7, Channel::MpiPointToPoint, 0);
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 3
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 4
    cid::rt::MatchKey key;
    key.src = 2;
    key.tag = 5;
    std::vector<std::uint64_t> seqs;
    while (auto e = ctx.mailbox().try_extract(key)) seqs.push_back(e->seq);
    ASSERT_EQ(seqs.size(), 3u);
    EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
    EXPECT_EQ(seqs.front(), 0u);
    EXPECT_EQ(ctx.mailbox().size(), 2u);  // the unrelated two remain
  });
}

TEST(MatchKey, WildcardsMatchAcrossSourcesAndTagsInArrivalOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    push_self(ctx, 0, 10, Channel::MpiPointToPoint, 0);
    push_self(ctx, 4, 11, Channel::MpiPointToPoint, 0);
    push_self(ctx, 1, 10, Channel::MpiPointToPoint, 0);

    // ANY_SOURCE with an exact tag.
    cid::rt::MatchKey any_src;
    any_src.src = cid::rt::kMatchAny;
    any_src.tag = 10;
    auto first = ctx.mailbox().try_extract(any_src);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->src, 0);  // arrival order, not source order

    // ANY_SOURCE + ANY_TAG takes whatever arrived first of the rest.
    cid::rt::MatchKey any_any;
    any_any.src = cid::rt::kMatchAny;
    any_any.tag = cid::rt::kMatchAny;
    auto second = ctx.mailbox().try_extract(any_any);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->src, 4);
    EXPECT_EQ(second->tag, 11);
  });
}

TEST(MatchKey, FaultFiltersSeparateTombstonesFromCleanTraffic) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Clean / tombstone / clean / tombstone, all same (src, tag).
    push_self(ctx, 1, 3, Channel::MpiPointToPoint, 0, /*faulted=*/false);
    push_self(ctx, 1, 3, Channel::MpiPointToPoint, 0, /*faulted=*/true);
    push_self(ctx, 1, 3, Channel::MpiPointToPoint, 0, /*faulted=*/false);
    push_self(ctx, 1, 3, Channel::MpiPointToPoint, 0, /*faulted=*/true);

    cid::rt::MatchKey clean;  // FaultFilter::Clean is the default
    clean.src = 1;
    clean.tag = 3;
    auto c1 = ctx.mailbox().try_extract(clean);
    ASSERT_TRUE(c1.has_value());
    EXPECT_EQ(c1->seq, 0u);  // skipped no clean envelope

    cid::rt::MatchKey faulted = clean;
    faulted.faults = cid::rt::FaultFilter::Faulted;
    auto t1 = ctx.mailbox().try_extract(faulted);
    ASSERT_TRUE(t1.has_value());
    EXPECT_TRUE(t1->faulted);
    EXPECT_EQ(t1->seq, 1u);

    // FaultFilter::Any drains the rest in arrival order regardless of flag.
    cid::rt::MatchKey any = clean;
    any.faults = cid::rt::FaultFilter::Any;
    auto a1 = ctx.mailbox().try_extract(any);
    auto a2 = ctx.mailbox().try_extract(any);
    ASSERT_TRUE(a1.has_value() && a2.has_value());
    EXPECT_EQ(a1->seq, 2u);
    EXPECT_FALSE(a1->faulted);
    EXPECT_EQ(a2->seq, 3u);
    EXPECT_TRUE(a2->faulted);
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, MidQueueExactExtractionKeepsRemainingOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    for (int tag : {1, 2, 3, 2, 1}) {
      push_self(ctx, 0, tag, Channel::MpiPointToPoint, 0);
    }
    // Pull tag 3 out of the middle, then both tag-2 envelopes; the per-(src,
    // tag) sub-queues must skip the holes the other extractions left behind.
    cid::rt::MatchKey key;
    key.src = 0;
    key.tag = 3;
    ASSERT_TRUE(ctx.mailbox().try_extract(key).has_value());
    key.tag = 2;
    auto first2 = ctx.mailbox().try_extract(key);
    auto second2 = ctx.mailbox().try_extract(key);
    ASSERT_TRUE(first2.has_value() && second2.has_value());
    EXPECT_LT(first2->seq, second2->seq);
    // Only the two tag-1 envelopes remain, still in arrival order.
    cid::rt::MatchKey any;
    any.src = cid::rt::kMatchAny;
    any.tag = cid::rt::kMatchAny;
    auto r1 = ctx.mailbox().try_extract(any);
    auto r2 = ctx.mailbox().try_extract(any);
    ASSERT_TRUE(r1.has_value() && r2.has_value());
    EXPECT_EQ(r1->tag, 1);
    EXPECT_EQ(r2->tag, 1);
    EXPECT_LT(r1->seq, r2->seq);
  });
}

TEST(MatchKey, ExactSublistSkipsEnvelopesStolenByWildcard) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Pinned receives and MPI_ANY_SOURCE compete in one bucket: a wildcard
    // extraction removes the head of the (src=2, tag=5) exact sub-queue
    // behind its back, leaving a stale seq the fast path must skip lazily.
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 3, 5, Channel::MpiPointToPoint, 0);  // seq 1
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 2

    cid::rt::MatchKey any_src;
    any_src.src = cid::rt::kMatchAny;
    any_src.tag = 5;
    auto stolen = ctx.mailbox().try_extract(any_src);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(stolen->seq, 0u);  // arrival order: src 2's sub-queue head

    cid::rt::MatchKey pinned;
    pinned.src = 2;
    pinned.tag = 5;
    auto remaining = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(remaining.has_value());
    EXPECT_EQ(remaining->seq, 2u);  // stale seq 0 skipped, not matched twice
    EXPECT_FALSE(ctx.mailbox().try_extract(pinned).has_value());

    pinned.src = 3;
    auto other = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->seq, 1u);
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, ExactResidualSkipLeavesRejectedEnvelopeInPlace) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 1

    // The residual rejects the sub-queue head; the fast path must advance
    // to seq 1 without erasing or re-examining seq 0.
    cid::rt::MatchKey pinned;
    pinned.src = 1;
    pinned.tag = 5;
    cid::rt::Mailbox::Residual reject_head = [](const cid::rt::Envelope& e) {
      return e.seq != 0;
    };
    auto second = ctx.mailbox().try_extract(pinned, &reject_head);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->seq, 1u);

    // The rejected envelope is still there for an unconstrained receive —
    // residual skips must never drop messages.
    auto head = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->seq, 0u);
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, ResidualAndWildcardMixNeverSkipsALegalMatch) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Interleaved sources, one bucket: (1,5) (2,5) (1,5) (3,5).
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 1
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 2
    push_self(ctx, 3, 5, Channel::MpiPointToPoint, 0);  // seq 3

    // Pinned receive whose residual rejects the head: lands on seq 2.
    cid::rt::MatchKey pinned;
    pinned.src = 1;
    pinned.tag = 5;
    cid::rt::Mailbox::Residual reject_head = [](const cid::rt::Envelope& e) {
      return e.seq != 0;
    };
    auto later = ctx.mailbox().try_extract(pinned, &reject_head);
    ASSERT_TRUE(later.has_value());
    EXPECT_EQ(later->seq, 2u);

    // Wildcard sweep picks up the rejected head first (global order), then
    // the other sources' messages; nothing was lost to the earlier skip.
    cid::rt::MatchKey any_src;
    any_src.src = cid::rt::kMatchAny;
    any_src.tag = 5;
    std::vector<std::uint64_t> seqs;
    while (auto e = ctx.mailbox().try_extract(any_src)) seqs.push_back(e->seq);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0u, 1u, 3u}));
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, MultiKeyPinnedPlusWildcardHonorsResidualPerCandidate) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 2, 6, Channel::MpiPointToPoint, 0);  // seq 1

    // One wait posts a pinned key and an ANY_SOURCE key together; the
    // residual vetoes the pinned head, so the wildcard's (later) envelope
    // must win even though the pinned candidate has the lower seq.
    std::vector<cid::rt::MatchKey> keys(2);
    keys[0].src = 1;
    keys[0].tag = 5;
    keys[1].src = cid::rt::kMatchAny;
    keys[1].tag = 6;
    cid::rt::Mailbox::Residual not_seq0 = [](const cid::rt::Envelope& e) {
      return e.seq != 0;
    };
    auto winner = ctx.mailbox().try_extract(
        std::span<const cid::rt::MatchKey>(keys), &not_seq0);
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(winner->seq, 1u);
    // Without the residual the pinned envelope is immediately extractable.
    auto head = ctx.mailbox().try_extract(
        std::span<const cid::rt::MatchKey>(keys));
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->seq, 0u);
  });
}

TEST(MatchKey, MultiKeyExtractionReturnsGlobalArrivalOrderAcrossBuckets) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Envelopes land in different (channel, context) buckets; a multi-key
    // wait must still hand them back in global arrival order, exactly like
    // the old single-queue scan did.
    push_self(ctx, 0, 1, Channel::Internal, 7);         // seq 0
    push_self(ctx, 0, 1, Channel::MpiPointToPoint, 0);  // seq 1
    push_self(ctx, 0, 1, Channel::Internal, 8);         // seq 2
    std::vector<cid::rt::MatchKey> keys(3);
    keys[0].channel = Channel::MpiPointToPoint;
    keys[0].context = 0;
    keys[0].src = 0;
    keys[0].tag = 1;
    keys[1].channel = Channel::Internal;
    keys[1].context = 7;
    keys[1].src = 0;
    keys[1].tag = 1;
    keys[2].channel = Channel::Internal;
    keys[2].context = 8;
    keys[2].src = 0;
    keys[2].tag = 1;
    std::vector<std::uint64_t> seqs;
    while (auto e = ctx.mailbox().try_extract(
               std::span<const cid::rt::MatchKey>(keys))) {
      seqs.push_back(e->seq);
    }
    ASSERT_EQ(seqs.size(), 3u);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
  });
}

TEST(MatchKey, ResidualRefinesKeyMatchesWithoutBreakingOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    for (int src : {5, 6, 5, 7}) {
      push_self(ctx, src, 1, Channel::MpiPointToPoint, 0);
    }
    cid::rt::MatchKey any;
    any.src = cid::rt::kMatchAny;
    any.tag = 1;
    const cid::rt::Mailbox::Residual odd_src_only =
        [](const cid::rt::Envelope& e) { return e.src % 2 == 1; };
    auto first = ctx.mailbox().try_extract(any, &odd_src_only);
    auto second = ctx.mailbox().try_extract(any, &odd_src_only);
    auto third = ctx.mailbox().try_extract(any, &odd_src_only);
    ASSERT_TRUE(first.has_value() && second.has_value() && third.has_value());
    EXPECT_EQ(first->src, 5);
    EXPECT_EQ(second->src, 5);  // the src=6 envelope is skipped, not consumed
    EXPECT_EQ(third->src, 7);
    EXPECT_EQ(ctx.mailbox().size(), 1u);
  });
}

TEST(MatchKey, CleanWildcardSkipsTombstoneAtFifoHead) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // One (src, tag) FIFO: tombstone, clean, clean.
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0, /*faulted=*/true);
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 1
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 2

    // A clean wildcard passes over the tombstone at the FIFO head and takes
    // the envelope behind it, unlinking it from the middle of the FIFO.
    cid::rt::MatchKey any_src;
    any_src.src = cid::rt::kMatchAny;
    any_src.tag = 5;
    auto clean = ctx.mailbox().try_extract(any_src);
    ASSERT_TRUE(clean.has_value());
    EXPECT_EQ(clean->seq, 1u);
    EXPECT_FALSE(clean->faulted);

    // Both neighbours are still linked: the tombstone for a faulted exact
    // key, then the last clean envelope for a clean one.
    cid::rt::MatchKey pinned;
    pinned.src = 1;
    pinned.tag = 5;
    pinned.faults = cid::rt::FaultFilter::Faulted;
    auto tombstone = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(tombstone.has_value());
    EXPECT_EQ(tombstone->seq, 0u);
    EXPECT_TRUE(tombstone->faulted);
    pinned.faults = cid::rt::FaultFilter::Clean;
    auto last = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->seq, 2u);
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, WildcardKeysSharingABucketTakeGlobalArrivalOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Three ANY_SOURCE keys on one bucket (one walk tests all of them per
    // node) plus one on another bucket; the order of the keys must not
    // decide which envelope wins.
    push_self(ctx, 1, 6, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 1
    push_self(ctx, 3, 4, Channel::Internal, 3);         // seq 2
    push_self(ctx, 4, 7, Channel::MpiPointToPoint, 0);  // seq 3
    push_self(ctx, 5, 4, Channel::MpiPointToPoint, 0);  // seq 4
    std::vector<cid::rt::MatchKey> keys(4);
    for (auto& key : keys) key.src = cid::rt::kMatchAny;
    keys[0].tag = 5;
    keys[1].channel = Channel::Internal;
    keys[1].context = 3;
    keys[1].tag = 4;
    keys[2].tag = 4;
    keys[3].tag = 6;
    std::vector<std::uint64_t> seqs;
    while (auto e = ctx.mailbox().try_extract(
               std::span<const cid::rt::MatchKey>(keys))) {
      seqs.push_back(e->seq);
    }
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 4}));
    EXPECT_EQ(ctx.mailbox().size(), 1u);  // tag 7: no key
  });
}

TEST(Mailbox, DrainedAndRefilledKeepsArrivalOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Fill, drain to empty, refill: the second round runs on recycled nodes
    // and the bucket's emptied FIFO table, and must order like the first.
    for (int round = 0; round < 2; ++round) {
      for (int tag : {4, 2, 4, 3}) {
        push_self(ctx, round, tag, Channel::MpiPointToPoint, 0);
      }
      std::vector<int> tags;
      std::vector<std::uint64_t> seqs;
      while (auto e = ctx.mailbox().try_extract(any_message())) {
        EXPECT_EQ(e->src, round);
        tags.push_back(e->tag);
        seqs.push_back(e->seq);
      }
      EXPECT_EQ(tags, (std::vector<int>{4, 2, 4, 3})) << "round " << round;
      EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
      EXPECT_EQ(ctx.mailbox().size(), 0u);
    }
    // Exact keys find refilled FIFOs too, in arrival order.
    push_self(ctx, 7, 1, Channel::MpiPointToPoint, 0);
    push_self(ctx, 8, 1, Channel::MpiPointToPoint, 0);
    push_self(ctx, 7, 1, Channel::MpiPointToPoint, 0);
    cid::rt::MatchKey pinned;
    pinned.src = 7;
    pinned.tag = 1;
    auto first = ctx.mailbox().try_extract(pinned);
    auto second = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(first.has_value() && second.has_value());
    EXPECT_LT(first->seq, second->seq);
    EXPECT_FALSE(ctx.mailbox().try_extract(pinned).has_value());
    EXPECT_EQ(ctx.mailbox().size(), 1u);
  });
}

TEST(Mailbox, WokenWildcardWaitTakesFirstMatchAfterRejectedPushes) {
  // Rank 0 blocks on a wildcard key whose residual rejects tag 7. Rank 1's
  // tag-7 pushes wake it (the key admits them) without a match, so each
  // wakeup resumes at the floor. The two acceptable envelopes then land
  // under one lock (an aggregate splits inside push), so the last search
  // finds both past its floor, walking back from the tail, and must take
  // the earlier one.
  cid::rt::RunOptions threads;
  threads.scheduler = cid::rt::sched::Mode::kThreads;
  cid::rt::run(
      2, MachineModel::zero(),
      [](RankCtx& ctx) {
        using cid::rt::Channel;
        if (ctx.rank() == 1) {
          cid::rt::Mailbox& box = ctx.world().mailbox(0);
          const auto push = [&box](int tag, Channel channel) {
            cid::rt::Envelope envelope;
            envelope.src = 1;
            envelope.tag = tag;
            envelope.channel = channel;
            box.push(std::move(envelope));
          };
          for (int i = 0; i < 3; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            push(7, Channel::MpiPointToPoint);  // admitted, then rejected
            push(8, Channel::Internal);         // no key admits it
          }
          std::vector<std::byte> wire;
          cid::rt::agg::append(wire, /*tag=*/8, /*context=*/0, {});
          cid::rt::agg::append(wire, /*tag=*/9, /*context=*/0, {});
          cid::rt::Envelope batch;
          batch.src = 2;
          batch.channel = Channel::Internal;
          batch.context = cid::rt::agg::kContext;
          batch.payload = cid::rt::Payload(std::move(wire));
          box.push(std::move(batch));
          return;
        }
        const cid::rt::Mailbox::Residual not_tag7 =
            [](const cid::rt::Envelope& e) { return e.tag != 7; };
        auto got = ctx.mailbox().wait_extract(any_message(), &not_tag7);
        EXPECT_EQ(got.src, 2);
        EXPECT_EQ(got.tag, 8);
        // Nothing was lost or reordered: the rejected envelopes, then the
        // later acceptable one, then the unrelated channel's three.
        while (ctx.mailbox().size() < 7) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::vector<int> tags;
        while (auto e = ctx.mailbox().try_extract(any_message())) {
          tags.push_back(e->tag);
        }
        EXPECT_EQ(tags, (std::vector<int>{7, 7, 7, 9}));
        EXPECT_EQ(ctx.mailbox().size(), 3u);
      },
      threads);
}

TEST(World, SharedObjectReturnsSameInstance) {
  cid::rt::run(4, MachineModel::zero(), [](RankCtx& ctx) {
    auto object = ctx.world().shared_object<std::atomic<int>>("test.counter");
    object->fetch_add(1);
    ctx.barrier();
    EXPECT_EQ(object->load(), 4);
  });
}

TEST(World, SharedObjectTypeMismatchThrows) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    ctx.world().shared_object<int>("test.key");
    EXPECT_THROW(ctx.world().shared_object<double>("test.key"),
                 cid::CidError);
  });
}

TEST(World, ManyRanksOversubscribed) {
  // Far more ranks than cores: everything must still terminate.
  auto result = cid::rt::run(64, MachineModel::zero(), [](RankCtx& ctx) {
    ctx.barrier();
    ctx.charge_compute(1e-6);
    ctx.barrier();
  });
  EXPECT_EQ(result.final_clocks.size(), 64u);
}

TEST(VirtualClock, AdvanceToNeverMovesBackwards) {
  cid::simnet::VirtualClock clock;
  clock.advance(5.0);
  clock.advance_to(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
  clock.advance_to(7.0);
  EXPECT_DOUBLE_EQ(clock.now(), 7.0);
}

TEST(VirtualClock, NegativeAdvanceThrows) {
  cid::simnet::VirtualClock clock;
  EXPECT_THROW(clock.advance(-1.0), cid::CidError);
}

TEST(MachineModel, BarrierCostGrowsLogarithmically) {
  const auto model = MachineModel::cray_xk7_gemini();
  EXPECT_LT(model.barrier_cost(2), model.barrier_cost(64));
  EXPECT_LT(model.barrier_cost(64), model.barrier_cost(1024));
  // log2 growth: doubling ranks adds one stage.
  const double d1 = model.barrier_cost(8) - model.barrier_cost(4);
  const double d2 = model.barrier_cost(16) - model.barrier_cost(8);
  EXPECT_DOUBLE_EQ(d1, d2);
}

TEST(MachineModel, DeliveryTimeScalesWithSize) {
  const auto model = MachineModel::cray_xk7_gemini();
  const auto& path = model.mpi_two_sided;
  const double small = path.delivery_time(0.0, 8);
  const double large = path.delivery_time(0.0, 1 << 20);
  EXPECT_LT(small, large);
  EXPECT_NEAR(large - small,
              (static_cast<double>((1 << 20) - 8)) / path.bytes_per_second +
                  path.rendezvous_extra_latency,
              1e-12);
}

// ---- Pooled fiber scheduler ------------------------------------------------

namespace sched = cid::rt::sched;

/// A program touching every virtual-time mechanism: compute, ring
/// messaging, and barriers. Used to pin pool/threads equivalence.
void ring_program(RankCtx& ctx) {
  const int np = ctx.nranks();
  const int next = (ctx.rank() + 1) % np;
  ctx.charge_compute(1e-6 * (ctx.rank() + 1));
  ctx.barrier();
  cid::rt::Envelope envelope;
  envelope.src = ctx.rank();
  envelope.tag = 7;
  envelope.available_at = ctx.clock().now() + 2e-6;
  ctx.world().mailbox(next).push(std::move(envelope));
  auto got = ctx.mailbox().wait_extract(any_message());
  ctx.clock().advance_to(got.available_at);
  ctx.barrier();
}

TEST(Sched, PoolAndThreadsProduceIdenticalClocks) {
  // Virtual time must not depend on the scheduler: same program, same model,
  // bit-identical final clocks under the fiber pool and thread-per-rank.
  cid::rt::RunOptions pool;
  pool.scheduler = sched::Mode::kPool;
  cid::rt::RunOptions threads;
  threads.scheduler = sched::Mode::kThreads;
  const auto model = MachineModel::cray_xk7_gemini();
  auto pooled = cid::rt::run(33, model, ring_program, pool);
  auto threaded = cid::rt::run(33, model, ring_program, threads);
  EXPECT_TRUE(pooled.pooled);
  EXPECT_FALSE(threaded.pooled);
  ASSERT_EQ(pooled.final_clocks.size(), threaded.final_clocks.size());
  for (std::size_t r = 0; r < pooled.final_clocks.size(); ++r) {
    EXPECT_EQ(pooled.final_clocks[r], threaded.final_clocks[r]) << "rank " << r;
  }
}

TEST(Sched, ThousandsOfRanksOnTwoWorkers) {
  // O(nranks) fibers over a tiny fixed pool: barriers (sharded), ring
  // traffic, and compute all terminate, with exactly the requested workers.
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  options.sim_workers = 2;
  auto result =
      cid::rt::run(2048, MachineModel::zero(), ring_program, options);
  EXPECT_TRUE(result.pooled);
  EXPECT_EQ(result.sched_stats.workers, 2u);
  EXPECT_EQ(result.sched_stats.fibers, 2048u);
  EXPECT_EQ(result.final_clocks.size(), 2048u);
}

TEST(Sched, YieldLetsBusyPollersMakeProgress) {
  // A non-blocking poll loop must yield its worker or the polled-for peer
  // never runs on a bounded pool. sched::yield() is that escape hatch (the
  // mpi::test / iprobe miss paths call it).
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  options.sim_workers = 1;
  auto result = cid::rt::run(
      4, MachineModel::zero(),
      [](RankCtx& ctx) {
        if (ctx.rank() == 0) {
          for (int dest = 1; dest < ctx.nranks(); ++dest) {
            cid::rt::Envelope envelope;
            envelope.src = 0;
            ctx.world().mailbox(dest).push(std::move(envelope));
          }
        } else {
          while (true) {
            auto got = ctx.mailbox().try_extract(any_message());
            if (got.has_value()) break;
            sched::yield();
          }
        }
      },
      options);
  EXPECT_TRUE(result.pooled);
}

TEST(Sched, SmallExplicitStacksWork) {
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  options.sim_stack_bytes = 64 * 1024;  // the enforced minimum
  auto result = cid::rt::run(64, MachineModel::zero(), ring_program, options);
  EXPECT_EQ(result.final_clocks.size(), 64u);
}

TEST(Sched, PoisonDuringThousandRankBarrier) {
  // One rank of a 1000-rank world dies while every other rank is inside the
  // sharded barrier; the poison must wake all shards and the run must
  // rethrow after a clean teardown. (The TSan CI shard runs this test.)
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  EXPECT_THROW(
      cid::rt::run(
          1000, MachineModel::zero(),
          [](RankCtx& ctx) {
            if (ctx.rank() == 613) {
              throw std::runtime_error("mid-barrier failure");
            }
            ctx.barrier();
          },
          options),
      std::runtime_error);
}

TEST(Sched, PoisonWakesMailboxAndBarrierWaitersTogether) {
  // Mixed blocking: half the ranks in the barrier, half in mailbox waits,
  // and the failing rank poisons both kinds at once.
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  EXPECT_THROW(
      cid::rt::run(
          256, MachineModel::zero(),
          [](RankCtx& ctx) {
            if (ctx.rank() == 0) throw std::runtime_error("die");
            if (ctx.rank() % 2 == 0) {
              ctx.barrier();
            } else {
              ctx.mailbox().wait_extract(any_message());
            }
          },
          options),
      std::runtime_error);
}

// ---- Envelope arena --------------------------------------------------------

TEST(Arena, RecyclesPayloadBuffers) {
  auto& arena = cid::rt::PayloadArena::global();
  const auto before = arena.stats();
  cid::ByteBuffer buffer = arena.acquire(4096);
  EXPECT_EQ(buffer.size(), 4096u);
  arena.release(std::move(buffer));
  const auto mid = arena.stats();
  EXPECT_EQ(mid.releases, before.releases + 1);
  EXPECT_EQ(mid.retained, before.retained + 1);
  // Re-acquiring the same size class must come from the bin, not malloc.
  cid::ByteBuffer again = arena.acquire(4000);  // same power-of-two bin
  const auto after = arena.stats();
  EXPECT_EQ(again.size(), 4000u);
  EXPECT_EQ(after.reuses, mid.reuses + 1);
  arena.release(std::move(again));
}

// A released buffer parks in the largest class its capacity covers, so a
// counted reuse never reallocates: a 200000-byte buffer serves later
// 200000-byte acquires, not 256 KiB ones. (Classes this large have no
// per-thread front, and no other test parks buffers in them.)
TEST(Arena, ReuseNeverReallocates) {
  auto& arena = cid::rt::PayloadArena::global();
  cid::ByteBuffer first = arena.acquire(200000);
  const std::byte* const storage = first.data();
  arena.release(std::move(first));
  auto before = arena.stats();
  cid::ByteBuffer big = arena.acquire(std::size_t{256} << 10);
  const bool reused = arena.stats().reuses == before.reuses + 1;
  EXPECT_EQ(reused, big.data() == storage);
  EXPECT_EQ(big.size(), std::size_t{256} << 10);

  before = arena.stats();
  cid::ByteBuffer same = arena.acquire(200000);
  EXPECT_EQ(arena.stats().reuses, before.reuses + 1);
  EXPECT_EQ(same.data(), storage);
  arena.release(std::move(big));
  arena.release(std::move(same));
}

TEST(Arena, RecycledBuffersAreZeroed) {
  auto& arena = cid::rt::PayloadArena::global();
  cid::ByteBuffer buffer = arena.acquire(512);
  for (auto& b : buffer) b = std::byte{0xAB};
  arena.release(std::move(buffer));
  cid::ByteBuffer again = arena.acquire(512);
  for (std::byte b : again) {
    ASSERT_EQ(b, std::byte{0});  // same value-init guarantee as a fresh buffer
  }
  arena.release(std::move(again));
}

TEST(Arena, PayloadRefcountsThroughArenaNodes) {
  cid::ByteBuffer bytes(128);
  bytes[0] = std::byte{42};
  cid::rt::Payload payload(std::move(bytes));
  EXPECT_EQ(payload.use_count(), 1);
  {
    cid::rt::Payload copy = payload;  // shares the node
    EXPECT_EQ(payload.use_count(), 2);
    EXPECT_EQ(copy.data()[0], std::byte{42});
  }
  EXPECT_EQ(payload.use_count(), 1);
  cid::rt::Payload deep = cid::rt::Payload::copy_of(payload.span());
  EXPECT_EQ(deep.use_count(), 1);
  EXPECT_EQ(deep.data()[0], std::byte{42});
}

TEST(Arena, EnvelopeChurnReusesNodes) {
  auto& arena = cid::rt::PayloadArena::global();
  const auto before = arena.stats();
  // Drive payloads through create/destroy churn; the node freelist and
  // buffer bins must absorb it (recycled counters move, not just released).
  for (int i = 0; i < 64; ++i) {
    cid::rt::Payload payload(cid::ByteBuffer(256));
    cid::rt::Payload copy = payload;
    payload.clear();
  }
  const auto after = arena.stats();
  EXPECT_GE(after.node_reuses, before.node_reuses + 32);
}

TEST(Arena, BufferReleasedOnAnotherThreadIsReused) {
  auto& arena = cid::rt::PayloadArena::global();
  cid::ByteBuffer buffer;
  std::thread([&] { buffer = arena.acquire(1000); }).join();
  const std::byte* const data = buffer.data();
  std::thread([&] {
    const auto before = arena.stats();
    arena.release(std::move(buffer));
    cid::ByteBuffer again = arena.acquire(1000);
    const auto after = arena.stats();
    EXPECT_EQ(again.data(), data);  // the same capacity, not a fresh one
    EXPECT_EQ(after.releases, before.releases + 1);
    EXPECT_EQ(after.reuses, before.reuses + 1);
    arena.release(std::move(again));
  }).join();
}

TEST(Arena, ExitingThreadReturnsItsCacheToGlobalBins) {
  auto& arena = cid::rt::PayloadArena::global();
  constexpr int kBuffers = 16;  // 16 x 1 KiB fills one thread's front bin
  constexpr int kPayloads = 64;
  const auto before = arena.stats();
  std::vector<const std::byte*> parked;
  std::thread([&] {
    std::vector<cid::ByteBuffer> buffers;
    for (int i = 0; i < kBuffers; ++i) {
      buffers.push_back(arena.acquire(1024));
      parked.push_back(buffers.back().data());
    }
    for (auto& buffer : buffers) arena.release(std::move(buffer));
    // Payload nodes park in the same front; the thread exits with both full.
    std::vector<cid::rt::Payload> payloads;
    for (int i = 0; i < kPayloads; ++i) {
      payloads.emplace_back(cid::ByteBuffer(16));
    }
  }).join();
  const auto exited = arena.stats();
  // The exited thread's counts are folded in exactly.
  EXPECT_EQ(exited.acquires, before.acquires + kBuffers);
  EXPECT_EQ(exited.releases, before.releases + kBuffers + kPayloads);
  EXPECT_EQ(exited.node_acquires, before.node_acquires + kPayloads);
  EXPECT_GE(exited.retained_bytes, std::uint64_t{kBuffers} * 1024);
  // A fresh thread finds the drained buffers in the global bins.
  std::thread([&] {
    std::vector<cid::ByteBuffer> again;
    for (int i = 0; i < kBuffers; ++i) {
      again.push_back(arena.acquire(1024));
      EXPECT_NE(std::find(parked.begin(), parked.end(), again.back().data()),
                parked.end());
    }
    for (auto& buffer : again) arena.release(std::move(buffer));
  }).join();
  EXPECT_EQ(arena.stats().reuses, exited.reuses + kBuffers);
}

}  // namespace
