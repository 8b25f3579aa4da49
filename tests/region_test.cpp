// End-to-end tests of the directive executor: the paper's Listings 1-3
// expressed through the embedded API, on all three targets, with clause
// inheritance, count inference, sync consolidation and overlap.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/core.hpp"
#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"

namespace {

using namespace cid::core;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

void spmd(int nranks, const cid::rt::RankFn& fn) {
  cid::rt::run(nranks, MachineModel::zero(), fn);
}

// Paper Listing 1: ring pattern with only the required clauses.
TEST(Directive, Listing1RingPattern) {
  spmd(6, [](RankCtx& ctx) {
    double buf1[4];
    double buf2[4] = {};
    for (int i = 0; i < 4; ++i) buf1[i] = ctx.rank() * 10.0 + i;

    comm_p2p(Clauses()
                 .sender("(rank-1+nprocs)%nprocs")
                 .receiver("(rank+1)%nprocs")
                 .sbuf(buf(buf1, "buf1"))
                 .rbuf(buf(buf2, "buf2")));

    const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(buf2[i], prev * 10.0 + i);
    }
  });
}

// Paper Listing 2: even ranks send to the next odd rank.
TEST(Directive, Listing2EvenToOdd) {
  spmd(8, [](RankCtx& ctx) {
    int buf1[2] = {ctx.rank(), ctx.rank() + 1000};
    int buf2[2] = {-1, -1};

    comm_p2p(Clauses()
                 .sbuf(buf(buf1))
                 .rbuf(buf(buf2))
                 .sender("rank-1")
                 .receiver("rank+1")
                 .sendwhen("rank%2==0")
                 .receivewhen("rank%2==1"));

    if (ctx.rank() % 2 == 1) {
      EXPECT_EQ(buf2[0], ctx.rank() - 1);
      EXPECT_EQ(buf2[1], ctx.rank() - 1 + 1000);
    } else {
      EXPECT_EQ(buf2[0], -1);  // even ranks receive nothing
    }
  });
}

// Boundary safety: the receiver clause is only evaluated on sending ranks,
// so the last rank's out-of-range neighbour expression is never evaluated.
TEST(Directive, GuardsPreventOutOfRangeNeighbourEvaluation) {
  spmd(4, [](RankCtx& ctx) {
    int out[1] = {ctx.rank()};
    int in[1] = {-1};
    comm_p2p(Clauses()
                 .sbuf(buf(out))
                 .rbuf(buf(in))
                 .sender("rank-1")
                 .receiver("rank+1")
                 .sendwhen("rank<nprocs-1")
                 .receivewhen("rank>0"));
    if (ctx.rank() > 0) { EXPECT_EQ(in[0], ctx.rank() - 1); }
  });
}

TEST(Directive, CountInferenceUsesSmallestArray) {
  spmd(2, [](RankCtx& ctx) {
    double big_send[10];
    double small_recv[6] = {};
    std::iota(big_send, big_send + 10, 0.0);

    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(big_send))
                 .rbuf(buf(small_recv)));

    if (ctx.rank() == 1) {
      // count inferred as min(10, 6) = 6
      EXPECT_DOUBLE_EQ(small_recv[5], 5.0);
    }
  });
}

TEST(Directive, ExplicitCountClauseWins) {
  spmd(2, [](RankCtx& ctx) {
    double send[8];
    double recv[8] = {};
    std::iota(send, send + 8, 1.0);
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .count(3)
                 .sbuf(buf(send))
                 .rbuf(buf(recv)));
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(recv[2], 3.0);
      EXPECT_DOUBLE_EQ(recv[3], 0.0);  // only 3 elements moved
    }
  });
}

TEST(Directive, CountRequiredWhenNoArrayExtent) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double x = 0.0;
                      double y = 0.0;
                      comm_p2p(Clauses()
                                   .sender(0)
                                   .receiver(1)
                                   .sbuf(buf(&x))
                                   .rbuf(buf(&y)));
                    }),
               cid::CidError);
}

TEST(Directive, MissingRequiredClauseThrows) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double a[2], b[2];
                      comm_p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
                    }),
               cid::CidError);
}

TEST(Directive, BufferListsFanOut) {
  // Paper Listing 5 shape: several buffers in one directive.
  spmd(2, [](RankCtx& ctx) {
    std::vector<double> vr(16), rhotot(16);
    std::vector<double> vr_in(16), rhotot_in(16);
    std::iota(vr.begin(), vr.end(), 0.0);
    std::iota(rhotot.begin(), rhotot.end(), 100.0);

    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .count(16)
                 .sbuf({buf(vr, "vr"), buf(rhotot, "rhotot")})
                 .rbuf({buf(vr_in, "vr"), buf(rhotot_in, "rhotot")}));

    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(vr_in[15], 15.0);
      EXPECT_DOUBLE_EQ(rhotot_in[0], 100.0);
    }
  });
}

// --- composite (struct) buffers ---------------------------------------------

struct SpinScalars {
  int local_id;
  int jmt;
  double xstart;
  double evec[3];
  char header[8];
};

}  // namespace

CID_REFLECT_STRUCT(SpinScalars, local_id, jmt, xstart, evec, header)

namespace {

TEST(Directive, CompositeBufferUsesDerivedDatatype) {
  spmd(2, [](RankCtx& ctx) {
    SpinScalars data{};
    if (ctx.rank() == 0) {
      data = {7, 42, 1.25, {0.1, 0.2, 0.3}, {'a', 'b'}};
    }
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .count(1)
                 .sbuf(buf(data, "scalars"))
                 .rbuf(buf(data, "scalars")));
    if (ctx.rank() == 1) {
      EXPECT_EQ(data.local_id, 7);
      EXPECT_EQ(data.jmt, 42);
      EXPECT_DOUBLE_EQ(data.xstart, 1.25);
      EXPECT_DOUBLE_EQ(data.evec[2], 0.3);
      EXPECT_EQ(data.header[1], 'b');
    }
  });
}

struct BadComposite {
  int n;
  int* ptr;
};

}  // namespace

CID_REFLECT_STRUCT(BadComposite, n, ptr)

namespace {

TEST(Directive, CompositeWithPointerRejected) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      BadComposite bad{};
                      comm_p2p(Clauses()
                                   .sender(0)
                                   .receiver(1)
                                   .count(1)
                                   .sbuf(buf(bad))
                                   .rbuf(buf(bad)));
                    }),
               cid::CidError);
}

// --- comm_parameters regions -------------------------------------------------

TEST(Directive, Listing3RegionWithLoop) {
  spmd(6, [](RankCtx& ctx) {
    constexpr int kIters = 5;
    double buf1[kIters];
    double buf2[kIters] = {};
    for (int p = 0; p < kIters; ++p) buf1[p] = ctx.rank() + p * 0.125;

    comm_parameters(
        Clauses()
            .sender("rank-1")
            .receiver("rank+1")
            .sendwhen("rank%2==0")
            .receivewhen("rank%2==1")
            .count(1)
            .max_comm_iter(kIters)
            .place_sync(SyncPlacement::EndParamRegion),
        [&](Region& region) {
          for (int p = 0; p < kIters; ++p) {
            region.p2p(Clauses().sbuf(buf(&buf1[p])).rbuf(buf(&buf2[p])));
          }
        });

    if (ctx.rank() % 2 == 1) {
      for (int p = 0; p < kIters; ++p) {
        EXPECT_DOUBLE_EQ(buf2[p], (ctx.rank() - 1) + p * 0.125);
      }
    }
  });
}

TEST(Directive, RegionClauseInheritanceAndOverride) {
  spmd(3, [](RankCtx& ctx) {
    int a[2] = {ctx.rank() * 2, ctx.rank() * 2 + 1};
    int b[2] = {-1, -1};
    int c[2] = {-1, -1};
    comm_parameters(
        Clauses().sender(0).receiver("rank==0?1:0").sendwhen("rank==0")
            .receivewhen("rank==1"),
        [&](Region& region) {
          // Inherits everything; rank 0 -> rank 1.
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
          // Overrides the receiver: rank 0 -> rank 2.
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(c)).receiver(2)
                         .receivewhen("rank==2").sendwhen("rank==0"));
        });
    if (ctx.rank() == 1) {
      EXPECT_EQ(b[0], 0);
      EXPECT_EQ(c[0], -1);
    }
    if (ctx.rank() == 2) {
      EXPECT_EQ(b[0], -1);
      EXPECT_EQ(c[0], 0);
    }
  });
}

TEST(Directive, StandalonePlaceSyncOnP2PThrows) {
  EXPECT_THROW(spmd(1,
                    [](RankCtx&) {
                      double a[1], b[1];
                      comm_p2p(Clauses()
                                   .sender(0)
                                   .receiver(0)
                                   .sbuf(buf(a))
                                   .rbuf(buf(b))
                                   .place_sync(SyncPlacement::EndParamRegion));
                    }),
               cid::CidError);
}

TEST(Directive, NestedRegionsInherit) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {ctx.rank() + 0.5, ctx.rank() + 1.5};
    double b[2] = {};
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0").receivewhen(
            "rank==1"),
        [&](Region&) {
          comm_parameters(Clauses().count(2), [&](Region& inner) {
            inner.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
          });
        });
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(b[0], 0.5);
      EXPECT_DOUBLE_EQ(b[1], 1.5);
    }
  });
}

// --- targets -------------------------------------------------------------

TEST(Directive, ShmemTargetMovesData) {
  spmd(4, [](RankCtx& ctx) {
    namespace shmem = cid::shmem;
    double* rbuf_sym = shmem::malloc_of<double>(4);
    std::fill(rbuf_sym, rbuf_sym + 4, -1.0);
    double sbuf_local[4];
    for (int i = 0; i < 4; ++i) sbuf_local[i] = ctx.rank() * 100.0 + i;
    ctx.barrier();

    comm_p2p(Clauses()
                 .sender("(rank-1+nprocs)%nprocs")
                 .receiver("(rank+1)%nprocs")
                 .count(4)
                 .target(Target::Shmem)
                 .sbuf(buf(sbuf_local))
                 .rbuf(buf_n(rbuf_sym, 4)));

    const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(rbuf_sym[i], prev * 100.0 + i);
    }
  });
}

TEST(Directive, ShmemTargetRequiresSymmetricRbuf) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double stack_rbuf[2] = {};
                      double sbuf_local[2] = {};
                      comm_p2p(Clauses()
                                   .sender(0)
                                   .receiver(1)
                                   .count(2)
                                   .target(Target::Shmem)
                                   .sbuf(buf(sbuf_local))
                                   .rbuf(buf(stack_rbuf)));
                    }),
               cid::CidError);
}

TEST(Directive, Mpi1SideTargetMovesData) {
  spmd(3, [](RankCtx& ctx) {
    double send[3];
    double recv[3] = {};
    for (int i = 0; i < 3; ++i) send[i] = ctx.rank() * 7.0 + i;

    comm_p2p(Clauses()
                 .sender("(rank-1+nprocs)%nprocs")
                 .receiver("(rank+1)%nprocs")
                 .target(Target::Mpi1Side)
                 .sbuf(buf(send))
                 .rbuf(buf(recv)));

    const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
    for (int i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(recv[i], prev * 7.0 + i);
    }
  });
}

TEST(Directive, AllTargetsProduceSameData) {
  for (Target target : {Target::Mpi2Side, Target::Mpi1Side, Target::Shmem}) {
    spmd(4, [&](RankCtx& ctx) {
      namespace shmem = cid::shmem;
      int* rbuf_mem = shmem::malloc_of<int>(8);  // symmetric works for all
      std::fill(rbuf_mem, rbuf_mem + 8, 0);
      int sbuf_mem[8];
      for (int i = 0; i < 8; ++i) sbuf_mem[i] = ctx.rank() * 1000 + i;
      ctx.barrier();

      comm_p2p(Clauses()
                   .sender("(rank-1+nprocs)%nprocs")
                   .receiver("(rank+1)%nprocs")
                   .count(8)
                   .target(target)
                   .sbuf(buf(sbuf_mem))
                   .rbuf(buf_n(rbuf_mem, 8)));

      const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(rbuf_mem[i], prev * 1000 + i) << "target "
                                                << static_cast<int>(target);
      }
    });
  }
}

// --- sync placement / consolidation ---------------------------------------

TEST(Directive, SyncConsolidationOneWaitallPerRegion) {
  // With independent buffers, a region of K adjacent p2p directives must
  // produce ONE waitall: total time ~= K * per-message + one waitall, not
  // K * (per-message + wait).
  const auto model = MachineModel::cray_xk7_gemini();
  constexpr int kMsgs = 32;

  auto directive_time = [&] {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      std::vector<double> out(3 * kMsgs), in(3 * kMsgs);
      comm_parameters(
          Clauses().sender(0).receiver(1).sendwhen("rank==0")
              .receivewhen("rank==1").count(3).max_comm_iter(kMsgs),
          [&](Region& region) {
            for (int p = 0; p < kMsgs; ++p) {
              region.p2p(
                  Clauses().sbuf(buf(&out[3 * p])).rbuf(buf(&in[3 * p])));
            }
          });
      (void)ctx;
    });
    return result.makespan();
  };

  auto wait_loop_time = [&] {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      namespace mpi = cid::mpi;
      auto world = mpi::Comm::world();
      std::vector<double> data(3 * kMsgs);
      if (ctx.rank() == 0) {
        std::vector<mpi::Request> reqs;
        for (int p = 0; p < kMsgs; ++p) {
          reqs.push_back(mpi::isend(world, &data[3 * p], 3, 1, p));
        }
        for (auto& r : reqs) mpi::wait(r);
      } else {
        std::vector<mpi::Request> reqs;
        for (int p = 0; p < kMsgs; ++p) {
          reqs.push_back(mpi::irecv(world, &data[3 * p], 3, 0, p));
        }
        for (auto& r : reqs) mpi::wait(r);
      }
    });
    return result.makespan();
  };

  EXPECT_LT(directive_time(), wait_loop_time());
}

TEST(Directive, OverlappingBuffersForceIntermediateSync) {
  // Two adjacent p2ps share a buffer: the second must not start before the
  // first completed (WAW on rbuf). Data correctness is the observable.
  spmd(2, [](RankCtx& ctx) {
    double stage[4] = {};
    double final_data[4] = {};
    double source[4];
    for (int i = 0; i < 4; ++i) source[i] = 10.0 + i;

    comm_parameters(
        Clauses().count(4), [&](Region& region) {
          // rank0 -> rank1 into stage
          region.p2p(Clauses()
                         .sender(0)
                         .receiver(1)
                         .sendwhen("rank==0")
                         .receivewhen("rank==1")
                         .sbuf(buf(source))
                         .rbuf(buf(stage)));
          // rank1 -> rank0 from stage (RAW dependence on stage)
          region.p2p(Clauses()
                         .sender(1)
                         .receiver(0)
                         .sendwhen("rank==1")
                         .receivewhen("rank==0")
                         .sbuf(buf(stage))
                         .rbuf(buf(final_data)));
        });

    if (ctx.rank() == 0) {
      for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(final_data[i], 10.0 + i);
    }
  });
}

TEST(Directive, PlaceSyncBeginNextRegion) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {1.5, 2.5};
    double b[2] = {};
    double c[2] = {9.5, 8.5};
    double d[2] = {};
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1")
            .place_sync(SyncPlacement::BeginNextParamRegion),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
        });
    // Synchronization deferred: completes at the start of this region.
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1"),
        [&](Region& region) {
          if (ctx.rank() == 1) {
            EXPECT_DOUBLE_EQ(b[0], 1.5);  // already synced at region begin
          }
          region.p2p(Clauses().sbuf(buf(c)).rbuf(buf(d)));
        });
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(d[0], 9.5);
    }
  });
}

TEST(Directive, PlaceSyncEndAdjacentRegions) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {1.0, 2.0}, b[2] = {};
    double c[2] = {3.0, 4.0}, d[2] = {};
    // Two adjacent regions defer to the end of the series.
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1")
            .place_sync(SyncPlacement::EndAdjParamRegions),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
        });
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1"),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(c)).rbuf(buf(d)));
        });
    // Second region has default END_PARAM_REGION: everything drained.
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(b[1], 2.0);
      EXPECT_DOUBLE_EQ(d[1], 4.0);
    }
  });
}

TEST(Directive, CommFlushDrainsDeferredSync) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {5.0, 6.0}, b[2] = {};
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1")
            .place_sync(SyncPlacement::EndAdjParamRegions),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
        });
    comm_flush();  // no further region follows
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(b[0], 5.0);
    }
  });
}

// --- overlap ---------------------------------------------------------------

TEST(Directive, OverlapBlockRunsBeforeSync) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {1.0, 2.0};
    double b[2] = {};
    bool overlap_ran = false;
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(a))
                 .rbuf(buf(b)),
             [&] { overlap_ran = true; });
    EXPECT_TRUE(overlap_ran);
    if (ctx.rank() == 1) { EXPECT_DOUBLE_EQ(b[0], 1.0); }
  });
}

TEST(Directive, OverlapHidesCommunicationTime) {
  const auto model = MachineModel::cray_xk7_gemini();
  constexpr double kComputeSeconds = 500e-6;  // >> per-message cost

  auto run_variant = [&](bool overlapped) {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      std::vector<double> out(300), in(300);
      auto compute = [&] { ctx.charge_compute(kComputeSeconds); };
      comm_parameters(
          Clauses().sender(0).receiver(1).sendwhen("rank==0")
              .receivewhen("rank==1").count(3).max_comm_iter(100),
          [&](Region& region) {
            for (int p = 0; p < 100; ++p) {
              region.p2p(
                  Clauses().sbuf(buf(&out[3 * p])).rbuf(buf(&in[3 * p])));
            }
            if (overlapped && ctx.rank() == 1) compute();
          });
      if (!overlapped && ctx.rank() == 1) compute();
    });
    return result.makespan();
  };

  const double with_overlap = run_variant(true);
  const double without_overlap = run_variant(false);
  // Overlapped: communication hides under the compute block.
  EXPECT_LT(with_overlap, without_overlap);
}

// --- virtual-time shape: directive beats hand-written wait loop -------------

TEST(Directive, ShmemTargetFasterThanMpiForSmallMessages) {
  const auto model = MachineModel::cray_xk7_gemini();
  constexpr int kMsgs = 64;

  auto run_target = [&](Target target) {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      namespace shmem = cid::shmem;
      double* in = shmem::malloc_of<double>(3 * kMsgs);
      std::vector<double> out(3 * kMsgs, 1.0);
      ctx.barrier();
      comm_parameters(
          Clauses().sender(0).receiver(1).sendwhen("rank==0")
              .receivewhen("rank==1").count(3).max_comm_iter(kMsgs)
              .target(target),
          [&](Region& region) {
            for (int p = 0; p < kMsgs; ++p) {
              region.p2p(
                  Clauses().sbuf(buf(&out[3 * p])).rbuf(buf(&in[3 * p])));
            }
          });
    });
    return result.makespan();
  };

  const double mpi_time = run_target(Target::Mpi2Side);
  const double shmem_time = run_target(Target::Shmem);
  EXPECT_LT(shmem_time, mpi_time);
  // The paper's regime: several-fold advantage for small transfers.
  EXPECT_GT(mpi_time / shmem_time, 2.0);
}

TEST(Directive, OutsideSpmdRegionThrows) {
  double a[1], b[1];
  EXPECT_THROW(
      comm_p2p(Clauses().sender(0).receiver(0).sbuf(buf(a)).rbuf(buf(b))),
      cid::CidError);
  EXPECT_THROW(comm_parameters(Clauses(), [](Region&) {}), cid::CidError);
  EXPECT_THROW(comm_flush(), cid::CidError);
}

}  // namespace

namespace {

// Regression: a SHMEM-targeted site whose SENDER CHANGES between epochs must
// keep its completion flags correct (per-source flag slots; a single shared
// counter deadlocks when the writer changes).
TEST(Directive, ShmemSiteWithChangingSenders) {
  spmd(4, [](RankCtx& ctx) {
    namespace shmem = cid::shmem;
    double* inbox = shmem::malloc_of<double>(2);
    double outbox[2];
    ctx.barrier();
    // Rounds with different (from, to) pairs through the SAME lexical site.
    const int froms[] = {0, 2, 1, 3, 0, 2};
    const int tos[] = {1, 3, 0, 2, 3, 1};
    for (int round = 0; round < 6; ++round) {
      const int from = froms[round];
      const int to = tos[round];
      outbox[0] = ctx.rank() * 10.0 + round;
      outbox[1] = -outbox[0];
      comm_p2p(Clauses()
                   .sender(from)
                   .receiver(to)
                   .sendwhen([&]() -> ExprValue { return ctx.rank() == from; })
                   .receivewhen([&]() -> ExprValue { return ctx.rank() == to; })
                   .count(2)
                   .target(Target::Shmem)
                   .sbuf(buf(outbox))
                   .rbuf(buf_n(inbox, 2)));
      if (ctx.rank() == to) {
        EXPECT_DOUBLE_EQ(inbox[0], from * 10.0 + round) << "round " << round;
        EXPECT_DOUBLE_EQ(inbox[1], -(from * 10.0 + round));
      }
      ctx.barrier();
    }
  });
}

// Regression: ranks that never execute a SHMEM-targeted site (here: rank 2)
// must not skew the flag allocation of ranks that do.
TEST(Directive, ShmemSiteSkippedBySomeRanks) {
  spmd(3, [](RankCtx& ctx) {
    namespace shmem = cid::shmem;
    double* inbox = shmem::malloc_of<double>(1);
    double outbox[1] = {ctx.rank() + 0.5};
    ctx.barrier();
    if (ctx.rank() != 2) {
      comm_p2p(Clauses()
                   .sender(0)
                   .receiver(1)
                   .sendwhen("rank==0")
                   .receivewhen("rank==1")
                   .count(1)
                   .target(Target::Shmem)
                   .sbuf(buf(outbox))
                   .rbuf(buf_n(inbox, 1)));
    }
    if (ctx.rank() == 1) { EXPECT_DOUBLE_EQ(inbox[0], 0.5); }
    ctx.barrier();
    // Rank 2 now makes a user allocation; offsets must still be symmetric.
    double* later = shmem::malloc_of<double>(4);
    ctx.barrier();
    if (ctx.rank() == 0) {
      double v = 9.25;
      shmem::put(later, &v, 1, 2);
    }
    shmem::barrier_all();
    if (ctx.rank() == 2) { EXPECT_DOUBLE_EQ(later[0], 9.25); }
  });
}

// --- clause inheritance through the executor -------------------------------
//
// Each test runs one region whose p2p omits (or overrides) one inheritable
// clause, and first checks that the executor's in-place view of the p2p's
// clauses agrees with Clauses::merged clause for clause.

void expect_view_matches_merged(const Clauses& region, const Clauses& site) {
  const Clauses merged = Clauses::merged(region, site);
  const ClauseView view(&region, site);
  const auto same = [](const ClauseExpr& a, const ClauseExpr& b) {
    EXPECT_EQ(a.describe(), b.describe());
  };
  same(view.sender_clause(), merged.sender_clause());
  same(view.receiver_clause(), merged.receiver_clause());
  same(view.sendwhen_clause(), merged.sendwhen_clause());
  same(view.receivewhen_clause(), merged.receivewhen_clause());
  same(view.count_clause(), merged.count_clause());
  same(view.max_comm_iter_clause(), merged.max_comm_iter_clause());
  EXPECT_EQ(view.reliability_present(), merged.reliability_present());
  same(view.reliability_timeout_clause(), merged.reliability_timeout_clause());
  same(view.reliability_retries_clause(), merged.reliability_retries_clause());
  EXPECT_EQ(view.target_clause(), merged.target_clause());
  const auto same_buffers = [](const BufferList& a, const BufferList& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].data, b[i].data);
  };
  same_buffers(view.sbuf_list(), merged.sbuf_list());
  same_buffers(view.rbuf_list(), merged.rbuf_list());
  EXPECT_EQ(view.validate_for_p2p().message(),
            merged.validate_for_p2p().message());
  Env from_view;
  view.bind_lets(from_view);
  Env from_merged;
  for (const auto& [name, value] : merged.bindings()) {
    from_merged.bind(name, value);
  }
  for (const auto& [name, value] : merged.bindings()) {
    EXPECT_EQ(from_view.lookup(name).value(), from_merged.lookup(name).value())
        << name;
  }
}

/// Runs `site` once inside a region with `region`'s clauses.
void run_inherited(const Clauses& region, const Clauses& site) {
  expect_view_matches_merged(region, site);
  comm_parameters(region, [&](Region& r) { r.p2p(site); });
}

Clauses ring() {
  return Clauses().sender("(rank-1+nprocs)%nprocs").receiver(
      "(rank+1)%nprocs");
}

TEST(DirectiveInheritance, SenderReceiverFromRegion) {
  spmd(4, [](RankCtx& ctx) {
    int out[1] = {ctx.rank()};
    int in[1] = {-1};
    run_inherited(ring(), Clauses().sbuf(buf(out)).rbuf(buf(in)));
    EXPECT_EQ(in[0], (ctx.rank() + 3) % 4);
  });
}

TEST(DirectiveInheritance, SenderReceiverOverriddenBySite) {
  spmd(4, [](RankCtx& ctx) {
    int out[1] = {ctx.rank()};
    int in[1] = {-1};
    run_inherited(ring(), Clauses()
                              .sender("(rank+1)%nprocs")
                              .receiver("(rank-1+nprocs)%nprocs")
                              .sbuf(buf(out))
                              .rbuf(buf(in)));
    EXPECT_EQ(in[0], (ctx.rank() + 1) % 4);
  });
}

TEST(DirectiveInheritance, GuardsFromRegion) {
  spmd(3, [](RankCtx& ctx) {
    int out[1] = {ctx.rank() + 10};
    int in[1] = {-1};
    run_inherited(Clauses().sender("rank-1").receiver("rank+1").sendwhen(
                      "rank==0").receivewhen("rank==1"),
                  Clauses().sbuf(buf(out)).rbuf(buf(in)));
    EXPECT_EQ(in[0], ctx.rank() == 1 ? 10 : -1);
  });
}

TEST(DirectiveInheritance, GuardsOverriddenBySite) {
  spmd(3, [](RankCtx& ctx) {
    int out[1] = {ctx.rank() + 10};
    int in[1] = {-1};
    run_inherited(Clauses().sender("rank-1").receiver("rank+1").sendwhen(
                      "rank==0").receivewhen("rank==1"),
                  Clauses()
                      .sendwhen("rank==1")
                      .receivewhen("rank==2")
                      .sbuf(buf(out))
                      .rbuf(buf(in)));
    EXPECT_EQ(in[0], ctx.rank() == 2 ? 11 : -1);
  });
}

TEST(DirectiveInheritance, CountFromRegion) {
  spmd(2, [](RankCtx&) {
    int out[4] = {1, 2, 3, 4};
    int in[4] = {-1, -1, -1, -1};
    run_inherited(ring().count(2), Clauses().sbuf(buf(out)).rbuf(buf(in)));
    EXPECT_EQ(in[1], 2);
    EXPECT_EQ(in[2], -1);
  });
}

TEST(DirectiveInheritance, CountOverriddenBySite) {
  spmd(2, [](RankCtx&) {
    int out[4] = {1, 2, 3, 4};
    int in[4] = {-1, -1, -1, -1};
    run_inherited(ring().count(2),
                  Clauses().count("nprocs+1").sbuf(buf(out)).rbuf(buf(in)));
    EXPECT_EQ(in[2], 3);
    EXPECT_EQ(in[3], -1);
  });
}

// max_comm_iter selects the persistent-request lowering, whose setup and
// per-message costs differ from plain nonblocking calls; a p2p site may not
// carry the clause itself.
TEST(DirectiveInheritance, MaxCommIterFromRegion) {
  const auto makespan = [](bool looping) {
    return cid::rt::run(
               2, MachineModel::cray_xk7_gemini(),
               [&](RankCtx&) {
                 double out[8] = {};
                 double in[8] = {};
                 Clauses region = ring();
                 if (looping) region.max_comm_iter(3);
                 for (int k = 0; k < 3; ++k) {
                   run_inherited(region,
                                 Clauses().sbuf(buf(out)).rbuf(buf(in)));
                 }
               })
        .makespan();
  };
  EXPECT_NE(makespan(true), makespan(false));
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double out[1] = {}, in[1] = {};
                      comm_parameters(ring(), [&](Region& r) {
                        r.p2p(Clauses().max_comm_iter(3).sbuf(buf(out)).rbuf(
                            buf(in)));
                      });
                    }),
               cid::CidError);
}

TEST(DirectiveInheritance, TargetFromRegion) {
  spmd(2, [](RankCtx& ctx) {
    double out[2] = {ctx.rank() + 0.25, 1.0};
    double* in = cid::shmem::malloc_of<double>(2);
    run_inherited(ring().target(Target::Shmem),
                  Clauses().sbuf(buf(out)).rbuf(buf_n(in, 2)));
    EXPECT_DOUBLE_EQ(in[0], (ctx.rank() + 1) % 2 + 0.25);
    EXPECT_GT(comm_stats().shmem_puts, 0u);
    EXPECT_EQ(comm_stats().mpi2_messages, 0u);
  });
}

TEST(DirectiveInheritance, TargetOverriddenBySite) {
  spmd(2, [](RankCtx& ctx) {
    double out[2] = {ctx.rank() + 0.25, 1.0};
    double* in = cid::shmem::malloc_of<double>(2);
    run_inherited(
        ring().target(Target::Shmem),
        Clauses().target(Target::Mpi2Side).sbuf(buf(out)).rbuf(buf_n(in, 2)));
    EXPECT_DOUBLE_EQ(in[0], (ctx.rank() + 1) % 2 + 0.25);
    EXPECT_EQ(comm_stats().shmem_puts, 0u);
    EXPECT_GT(comm_stats().mpi2_messages, 0u);
  });
}

TEST(DirectiveInheritance, BuffersFromRegion) {
  spmd(2, [](RankCtx& ctx) {
    int out[1] = {ctx.rank() + 5};
    int in[1] = {-1};
    run_inherited(ring().sbuf(buf(out)).rbuf(buf(in)), Clauses());
    EXPECT_EQ(in[0], (ctx.rank() + 1) % 2 + 5);
  });
}

TEST(DirectiveInheritance, BuffersOverriddenBySite) {
  spmd(2, [](RankCtx& ctx) {
    int out[1] = {ctx.rank() + 5};
    int in[1] = {-1};
    int site_out[1] = {ctx.rank() + 50};
    int site_in[1] = {-1};
    run_inherited(ring().sbuf(buf(out)).rbuf(buf(in)),
                  Clauses().sbuf(buf(site_out)).rbuf(buf(site_in)));
    EXPECT_EQ(in[0], -1);
    EXPECT_EQ(site_in[0], (ctx.rank() + 1) % 2 + 50);
  });
}

// reliability is a comm_parameters-only clause; the pair moves together.
TEST(DirectiveInheritance, ReliabilityFromRegion) {
  spmd(2, [](RankCtx& ctx) {
    int out[1] = {ctx.rank() + 7};
    int in[1] = {-1};
    run_inherited(ring().reliability(100, 3),
                  Clauses().sbuf(buf(out)).rbuf(buf(in)));
    EXPECT_EQ(in[0], (ctx.rank() + 1) % 2 + 7);
    EXPECT_EQ(comm_stats().reliable_transfers, 1u);
  });
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      int out[1] = {}, in[1] = {};
                      comm_parameters(ring(), [&](Region& r) {
                        r.p2p(Clauses().reliability(100, 3).sbuf(buf(out)).rbuf(
                            buf(in)));
                      });
                    }),
               cid::CidError);
}

TEST(DirectiveInheritance, SiteLetShadowsRegionLet) {
  spmd(4, [](RankCtx& ctx) {
    int out[1] = {ctx.rank()};
    int from_region[1] = {-1};
    int from_site[1] = {-1};
    const Clauses region = Clauses()
                               .sender("(rank-k+nprocs)%nprocs")
                               .receiver("(rank+k)%nprocs")
                               .let("k", 1);
    run_inherited(region, Clauses().sbuf(buf(out)).rbuf(buf(from_region)));
    run_inherited(region, Clauses().let("k", 2).sbuf(buf(out)).rbuf(
                              buf(from_site)));
    EXPECT_EQ(from_region[0], (ctx.rank() + 3) % 4);
    EXPECT_EQ(from_site[0], (ctx.rank() + 2) % 4);
  });
}

}  // namespace
