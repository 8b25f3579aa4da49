// Tests for directive events: what each directive records into cid::obs,
// with which virtual timestamps, and that it is deterministic.
#include <gtest/gtest.h>

#include "core/core.hpp"
#include "obs_trace.hpp"
#include "rt/runtime.hpp"

namespace {

using namespace cid::core;
using cid::obs::Span;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

/// Run `fn` with obs recording on and return its directive events.
std::vector<Span> run_traced(int nranks, const MachineModel& model,
                             const cid::rt::RankFn& fn) {
  ObsRecordingScope recording;
  cid::rt::run(nranks, model, fn);
  return directive_spans();
}

bool is_kind(const Span& span, TraceEventKind kind) {
  return span.cat == trace_event_kind_name(kind);
}

TEST(Trace, DisabledByDefault) {
  // With obs off, directives record nothing.
  cid::obs::clear();
  cid::rt::run(2, MachineModel::zero(), [](RankCtx&) {
    double a[2] = {}, b[2] = {};
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(a))
                 .rbuf(buf(b)));
  });
  EXPECT_TRUE(cid::obs::spans().empty());
}

TEST(Trace, RecordsP2PSpansPerRank) {
  auto events = run_traced(3, MachineModel::zero(), [](RankCtx&) {
    double a[4] = {}, b[4] = {};
    comm_p2p(Clauses()
                 .sender("(rank-1+nprocs)%nprocs")
                 .receiver("(rank+1)%nprocs")
                 .sbuf(buf(a))
                 .rbuf(buf(b)));
  });
  EXPECT_EQ(count_kind(events, TraceEventKind::P2PDirective), 3);
  for (const auto& e : events) {
    EXPECT_GE(e.end, e.begin);
    EXPECT_FALSE(e.name.empty());
    if (is_kind(e, TraceEventKind::P2PDirective)) {
      EXPECT_EQ(e.messages, 1u);  // one send injected per rank (ring)
      EXPECT_EQ(e.bytes, 4 * sizeof(double));
    }
  }
}

TEST(Trace, RegionAndSyncSpans) {
  auto events = run_traced(2, MachineModel::cray_xk7_gemini(), [](RankCtx&) {
    std::vector<double> data(12);
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1").count(3).max_comm_iter(4),
        [&](Region& region) {
          for (int p = 0; p < 4; ++p) {
            region.p2p(
                Clauses().sbuf(buf_n(&data[3 * p], 3)).rbuf(
                    buf_n(&data[3 * p], 3)));
          }
        });
  });
  EXPECT_EQ(count_kind(events, TraceEventKind::RegionDirective), 2);
  EXPECT_EQ(count_kind(events, TraceEventKind::P2PDirective), 8);
  // One consolidated sync per rank, nested inside the region span.
  EXPECT_EQ(count_kind(events, TraceEventKind::Synchronization), 2);
  for (const auto& region_event : events) {
    if (!is_kind(region_event, TraceEventKind::RegionDirective)) continue;
    for (const auto& inner : events) {
      if (inner.rank != region_event.rank ||
          is_kind(inner, TraceEventKind::RegionDirective)) {
        continue;
      }
      EXPECT_GE(inner.begin, region_event.begin);
      EXPECT_LE(inner.end, region_event.end);
    }
  }
}

TEST(Trace, OverlapSpanRecorded) {
  auto events = run_traced(2, MachineModel::cray_xk7_gemini(), [](RankCtx& ctx) {
    double a[2] = {}, b[2] = {};
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(a))
                 .rbuf(buf(b)),
             [&] { ctx.charge_compute(25e-6); });
  });
  ASSERT_EQ(count_kind(events, TraceEventKind::Overlap), 2);
  for (const auto& e : events) {
    if (is_kind(e, TraceEventKind::Overlap)) {
      EXPECT_NEAR(e.end - e.begin, 25e-6, 1e-9);
    }
  }
}

TEST(Trace, CollectiveSpanRecorded) {
  auto events = run_traced(4, MachineModel::zero(), [](RankCtx&) {
    double s[4] = {}, r[4] = {};
    comm_collective(
        Clauses().pattern(Pattern::AllToAll).count(1).sbuf(buf(s)).rbuf(
            buf(r)));
  });
  EXPECT_EQ(count_kind(events, TraceEventKind::CollectiveDirective), 4);
}

TEST(Trace, DeterministicAcrossRuns) {
  auto run_once = [] {
    return run_traced(4, MachineModel::cray_xk7_gemini(), [](RankCtx&) {
      double a[8] = {}, b[8] = {};
      for (int lap = 0; lap < 3; ++lap) {
        comm_p2p(Clauses()
                     .sender("(rank-1+nprocs)%nprocs")
                     .receiver("(rank+1)%nprocs")
                     .sbuf(buf(a))
                     .rbuf(buf(b)));
      }
    });
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Trace, ClearDropsEvents) {
  ObsRecordingScope recording;
  cid::rt::run(1, MachineModel::zero(), [](RankCtx&) {
    double a[1] = {}, b[1] = {};
    comm_p2p(Clauses().sender(0).receiver(0).count(1).sbuf(buf(a)).rbuf(
        buf(b)));
  });
  EXPECT_FALSE(cid::obs::spans().empty());
  cid::obs::clear();
  EXPECT_TRUE(cid::obs::spans().empty());
}

}  // namespace
