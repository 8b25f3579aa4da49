// Tests for the comm_collective directive extension (the paper's Section V
// future work): patterns, group formation, both targets, validation, and
// translator support.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/strings.hpp"
#include "core/core.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"
#include "translate/translator.hpp"

namespace {

using namespace cid::core;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

void spmd(int nranks, const cid::rt::RankFn& fn) {
  cid::rt::run(nranks, MachineModel::zero(), fn);
}

class CollectiveDirectiveTargets
    : public ::testing::TestWithParam<Target> {};

TEST_P(CollectiveDirectiveTargets, OneToManyBroadcasts) {
  const Target target = GetParam();
  spmd(6, [target](RankCtx& ctx) {
    double* rbuf_sym = cid::shmem::malloc_of<double>(4);
    std::fill(rbuf_sym, rbuf_sym + 4, -1.0);
    double sbuf_local[4] = {};
    if (ctx.rank() == 0) {
      for (int i = 0; i < 4; ++i) sbuf_local[i] = 5.0 + i;
    }
    ctx.barrier();
    comm_collective(Clauses()
                        .pattern(Pattern::OneToMany)
                        .root(0)
                        .count(4)
                        .target(target)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf_n(rbuf_sym, 4)));
    for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(rbuf_sym[i], 5.0 + i);
  });
}

TEST_P(CollectiveDirectiveTargets, ManyToOneGathers) {
  const Target target = GetParam();
  spmd(5, [target](RankCtx& ctx) {
    double* rbuf_sym = cid::shmem::malloc_of<double>(10);  // 5 ranks x 2
    std::fill(rbuf_sym, rbuf_sym + 10, -1.0);
    double sbuf_local[2] = {ctx.rank() * 2.0, ctx.rank() * 2.0 + 1};
    ctx.barrier();
    comm_collective(Clauses()
                        .pattern(Pattern::ManyToOne)
                        .root(0)
                        .count(2)
                        .target(target)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf_n(rbuf_sym, 10)));
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(rbuf_sym[i], i);
    }
  });
}

TEST_P(CollectiveDirectiveTargets, AllToAllTransposes) {
  const Target target = GetParam();
  spmd(4, [target](RankCtx& ctx) {
    int* rbuf_sym = cid::shmem::malloc_of<int>(4);
    std::fill(rbuf_sym, rbuf_sym + 4, -1);
    int sbuf_local[4];
    for (int j = 0; j < 4; ++j) sbuf_local[j] = ctx.rank() * 100 + j;
    ctx.barrier();
    comm_collective(Clauses()
                        .pattern(Pattern::AllToAll)
                        .count(1)
                        .target(target)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf_n(rbuf_sym, 4)));
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(rbuf_sym[j], j * 100 + ctx.rank()) << "target "
                                                   << static_cast<int>(target);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Targets, CollectiveDirectiveTargets,
                         ::testing::Values(Target::Mpi2Side, Target::Shmem));

TEST(CollectiveDirective, GroupClauseFormsGroups) {
  spmd(8, [](RankCtx& ctx) {
    // Two groups of four: ranks 0-3 and 4-7; each group broadcasts its own
    // root value.
    double* rbuf_sym = cid::shmem::malloc_of<double>(1);
    *rbuf_sym = -1.0;
    double sbuf_local[1] = {0.0};
    const int group_id = ctx.rank() / 4;
    if (ctx.rank() % 4 == 0) sbuf_local[0] = 100.0 + group_id;
    ctx.barrier();
    comm_collective(Clauses()
                        .pattern(Pattern::OneToMany)
                        .root(0)
                        .group("rank/4")
                        .count(1)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf_n(rbuf_sym, 1)));
    EXPECT_DOUBLE_EQ(*rbuf_sym, 100.0 + group_id);
  });
}

TEST(CollectiveDirective, NegativeGroupExcludes) {
  spmd(6, [](RankCtx& ctx) {
    double* rbuf_sym = cid::shmem::malloc_of<double>(1);
    *rbuf_sym = -1.0;
    double sbuf_local[1] = {ctx.rank() == 0 ? 42.0 : 0.0};
    ctx.barrier();
    // Odd ranks are excluded (group < 0).
    comm_collective(Clauses()
                        .pattern(Pattern::OneToMany)
                        .root(0)
                        .group("rank%2==0 ? 0 : 0-1")
                        .count(1)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf_n(rbuf_sym, 1)));
    if (ctx.rank() % 2 == 0) {
      EXPECT_DOUBLE_EQ(*rbuf_sym, 42.0);
    } else {
      EXPECT_DOUBLE_EQ(*rbuf_sym, -1.0);  // untouched on excluded ranks
    }
  });
}

TEST(CollectiveDirective, CountInferenceOneToMany) {
  spmd(3, [](RankCtx& ctx) {
    double sbuf_local[6] = {};
    double rbuf_local[6] = {};
    if (ctx.rank() == 1) std::iota(sbuf_local, sbuf_local + 6, 0.0);
    comm_collective(Clauses()
                        .pattern(Pattern::OneToMany)
                        .root(1)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf(rbuf_local)));  // count inferred: 6
    EXPECT_DOUBLE_EQ(rbuf_local[5], 5.0);
  });
}

TEST(CollectiveDirective, CountInferencePerMemberBlocks) {
  spmd(4, [](RankCtx& ctx) {
    // ManyToOne: rbuf holds one block per member; count inferred as
    // extent/size = 8/4 = 2.
    double sbuf_local[2] = {ctx.rank() + 0.25, ctx.rank() + 0.75};
    double rbuf_local[8] = {};
    comm_collective(Clauses()
                        .pattern(Pattern::ManyToOne)
                        .root(0)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf(rbuf_local)));
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(rbuf_local[6], 3.25);
      EXPECT_DOUBLE_EQ(rbuf_local[7], 3.75);
    }
  });
}

TEST(CollectiveDirective, RepeatedExecutionReusesGroup) {
  spmd(4, [](RankCtx& ctx) {
    double* rbuf_sym = cid::shmem::malloc_of<double>(1);
    double sbuf_local[1];
    ctx.barrier();
    for (int round = 0; round < 5; ++round) {
      sbuf_local[0] = ctx.rank() == 0 ? round * 3.0 : 0.0;
      comm_collective(Clauses()
                          .pattern(Pattern::OneToMany)
                          .root(0)
                          .count(1)
                          .target(Target::Shmem)
                          .sbuf(buf(sbuf_local))
                          .rbuf(buf_n(rbuf_sym, 1)));
      EXPECT_DOUBLE_EQ(*rbuf_sym, round * 3.0);
    }
  });
}

TEST(CollectiveDirective, InsideRegionInheritsTargetAndCount) {
  spmd(3, [](RankCtx& ctx) {
    double sbuf_local[3] = {};
    double rbuf_local[3] = {};
    if (ctx.rank() == 0) std::iota(sbuf_local, sbuf_local + 3, 7.0);
    // Note: comm_collective is standalone here; inheritance happens through
    // explicit clause reuse, not regions (collectives synchronize at the
    // directive). Verify the explicit form works alongside a region.
    comm_collective(Clauses()
                        .pattern(Pattern::OneToMany)
                        .root(0)
                        .count(3)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf(rbuf_local)));
    EXPECT_DOUBLE_EQ(rbuf_local[2], 9.0);
  });
}

// --- validation ---------------------------------------------------------

TEST(CollectiveDirective, ValidationErrors) {
  double a[4] = {};
  double b[4] = {};

  Clauses no_pattern;
  no_pattern.root(0).sbuf(buf(a)).rbuf(buf(b));
  EXPECT_FALSE(no_pattern.validate_for_collective().is_ok());

  Clauses no_root;
  no_root.pattern(Pattern::OneToMany).sbuf(buf(a)).rbuf(buf(b));
  EXPECT_FALSE(no_root.validate_for_collective().is_ok());

  Clauses alltoall_no_root_ok;
  alltoall_no_root_ok.pattern(Pattern::AllToAll).sbuf(buf(a)).rbuf(buf(b));
  EXPECT_TRUE(alltoall_no_root_ok.validate_for_collective().is_ok());

  Clauses with_guards;
  with_guards.pattern(Pattern::OneToMany)
      .root(0)
      .sendwhen("rank==0")
      .receivewhen("rank!=0")
      .sbuf(buf(a))
      .rbuf(buf(b));
  EXPECT_FALSE(with_guards.validate_for_collective().is_ok());

  Clauses with_sender;
  with_sender.pattern(Pattern::OneToMany).root(0).sender(0).sbuf(buf(a)).rbuf(
      buf(b));
  EXPECT_FALSE(with_sender.validate_for_collective().is_ok());

  double c[4] = {};
  Clauses two_sbufs;
  two_sbufs.pattern(Pattern::OneToMany).root(0).sbuf({buf(a), buf(c)}).rbuf(
      buf(b));
  EXPECT_FALSE(two_sbufs.validate_for_collective().is_ok());
}

TEST(CollectiveDirective, Mpi1SideRejected) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double a[2] = {};
                      double b[2] = {};
                      comm_collective(Clauses()
                                          .pattern(Pattern::OneToMany)
                                          .root(0)
                                          .target(Target::Mpi1Side)
                                          .sbuf(buf(a))
                                          .rbuf(buf(b)));
                    }),
               cid::CidError);
}

TEST(CollectiveDirective, ShmemRequiresSymmetricRbuf) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double a[2] = {};
                      double stack_rbuf[2] = {};
                      comm_collective(Clauses()
                                          .pattern(Pattern::OneToMany)
                                          .root(0)
                                          .count(2)
                                          .target(Target::Shmem)
                                          .sbuf(buf(a))
                                          .rbuf(buf(stack_rbuf)));
                    }),
               cid::CidError);
}

TEST(CollectiveDirective, OutOfRangeRootThrows) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double a[2] = {};
                      double b[2] = {};
                      comm_collective(Clauses()
                                          .pattern(Pattern::OneToMany)
                                          .root(9)
                                          .sbuf(buf(a))
                                          .rbuf(buf(b)));
                    }),
               cid::CidError);
}

// --- pragma / translator ---------------------------------------------------

TEST(CollectivePragma, ParsesAndValidates) {
  auto parsed = parse_pragma(
      "#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) "
      "group(rank/4) sbuf(src) rbuf(dst) count(n)");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().kind, DirectiveKind::CommCollective);

  EXPECT_FALSE(parse_pragma("#pragma comm_collective sbuf(a) rbuf(b)")
                   .is_ok());  // no pattern
  EXPECT_FALSE(
      parse_pragma("#pragma comm_collective pattern(PATTERN_ALL_TO_ALL) "
                   "sender(0) sbuf(a) rbuf(b)")
          .is_ok());  // sender not allowed
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p pattern(PATTERN_ALL_TO_ALL) "
                            "sbuf(a) rbuf(b)")
                   .is_ok());  // pattern only on comm_collective
}

TEST(CollectiveTranslate, GeneratesBcast) {
  auto result = cid::translate::translate_source(R"(
#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) sbuf(src) rbuf(dst) count(16)
{ }
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(cid::contains(result.value().source, "cid::mpi::bcast"));
  EXPECT_TRUE(cid::contains(result.value().source, "copy_block"));
}

TEST(CollectiveTranslate, GeneratesGatherWithGroup) {
  auto result = cid::translate::translate_source(R"(
#pragma comm_collective pattern(PATTERN_MANY_TO_ONE) root(0) group(rank/2) sbuf(src) rbuf(dst) count(4)
{ }
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(cid::contains(result.value().source, "cid::mpi::gather"));
  EXPECT_TRUE(cid::contains(result.value().source, ".split("));
}

TEST(CollectiveTranslate, GeneratesAlltoall) {
  auto result = cid::translate::translate_source(R"(
#pragma comm_collective pattern(PATTERN_ALL_TO_ALL) sbuf(src) rbuf(dst) count(4)
{ }
)");
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(cid::contains(result.value().source, "cid::mpi::alltoall"));
}

TEST(CollectiveTranslate, RequiresExplicitCount) {
  auto result = cid::translate::translate_source(R"(
#pragma comm_collective pattern(PATTERN_ALL_TO_ALL) sbuf(src) rbuf(dst)
{ }
)");
  EXPECT_FALSE(result.is_ok());
}

TEST(CollectiveTranslate, RejectsShmemTarget) {
  auto result = cid::translate::translate_source(R"(
#pragma comm_collective pattern(PATTERN_ALL_TO_ALL) sbuf(src) rbuf(dst) count(4) target(TARGET_COMM_SHMEM)
{ }
)");
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), cid::ErrorCode::UnsupportedTarget);
}

}  // namespace
