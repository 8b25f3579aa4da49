// Allocation counts of the directive executor. A comm_p2p instance whose
// sendwhen/receivewhen guards are false on a rank (most instances of the
// WL-LSMS scatter) must execute without touching the heap. This executable
// replaces the global operator new with a counting one, so it stands alone.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/core.hpp"
#include "rt/runtime.hpp"

namespace {

/// Allocations made by the calling thread. Thread-local, so ranks running
/// on other scheduler workers do not disturb a rank's count; the measured
/// loops never park, so their fiber stays on one thread.
thread_local std::size_t t_allocations = 0;

void* counted_allocation(std::size_t bytes) {
  ++t_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_allocation(std::size_t bytes, std::align_val_t align) {
  ++t_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (bytes + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                             : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_allocation(bytes); }
void* operator new[](std::size_t bytes) { return counted_allocation(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_aligned_allocation(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_aligned_allocation(bytes, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cid::core;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

constexpr int kTypes = 64;
constexpr int kInactiveRank = 2;

TEST(DirectiveAlloc, CounterSeesAllocations) {
  const std::size_t before = t_allocations;
  auto* probe = new int(7);
  EXPECT_EQ(t_allocations - before, 1u);
  delete probe;
}

// Building a site's clauses allocates nothing either: buffer names are not
// copied and a one-buffer sbuf/rbuf list is held inline.
TEST(DirectiveAlloc, OneBufferSiteClausesAllocateNothing) {
  double ev[3] = {};
  double evec[3] = {};
  const std::size_t before = t_allocations;
  {
    const Clauses site = Clauses()
                             .sbuf(buf_n(ev, 3, "&ev[3*p]"))
                             .rbuf(buf_n(evec, 3, "&local.atom[p].evec[0]"));
    EXPECT_EQ(site.sbuf_list().size(), 1u);
    EXPECT_EQ(site.rbuf_list().front().data, evec);
  }
  EXPECT_EQ(t_allocations - before, 0u);
}

// The set_evec_directive shape (WL-LSMS Listing 7): one comm_parameters
// region whose guards and receiver are callables over the loop variable, and
// one comm_p2p with an overlap block per type. Members are ranks 0 and 1;
// rank 2 is in no LIZ, so every instance is inactive there.
TEST(DirectiveAlloc, InactiveRegionP2PAllocatesNothing) {
  std::vector<std::size_t> region_allocations(3, 0);
  std::vector<int> overlaps(3, 0);
  std::vector<double> received(3 * kTypes, 0.0);
  cid::rt::run(3, MachineModel::zero(), [&](RankCtx& ctx) {
    const int me = ctx.rank();
    const int root = 0;
    const int owner = 1;
    std::vector<double> ev(3 * kTypes);
    for (std::size_t i = 0; i < ev.size(); ++i) ev[i] = 0.5 * i;
    std::vector<double> local_evec(3 * kTypes, 0.0);
    int p = 0;
    const Clauses region_clauses =
        Clauses()
            .sendwhen([&]() -> ExprValue { return me == root && p >= 0; })
            .receivewhen([&]() -> ExprValue { return me == owner && p >= 0; })
            .sender(root)
            .receiver([&]() -> ExprValue { return owner + 0 * p; })
            .count(3)
            .max_comm_iter(kTypes)
            .place_sync(SyncPlacement::EndParamRegion)
            .target(Target::Mpi2Side);
    std::vector<Clauses> sites;
    for (int type = 0; type < kTypes; ++type) {
      const auto t = static_cast<std::size_t>(type);
      sites.push_back(
          Clauses()
              .sbuf(buf_n(ev.data() + 3 * t, 3, "&ev[3*p]"))
              .rbuf(buf_n(local_evec.data() + 3 * t, 3,
                          "&local.atom[p].evec[0]")));
    }
    int ran = 0;
    const auto overlap = [&] {
      // Captures more than a std::function holds inline.
      if (me == owner && p >= 0 && !sites.empty()) ++ran;
      if (me == kInactiveRank) ++ran;
    };
    // Round 0 warms the rank's executor state (site keys, slot tables);
    // round 1 is measured.
    for (int round = 0; round < 2; ++round) {
      comm_parameters(region_clauses, [&](Region& region) {
        const std::size_t before = t_allocations;
        for (p = 0; p < kTypes; ++p) {
          region.p2p(sites[static_cast<std::size_t>(p)], overlap);
        }
        region_allocations[static_cast<std::size_t>(me)] =
            t_allocations - before;
      });
    }
    overlaps[static_cast<std::size_t>(me)] = ran;
    if (me == owner) {
      for (std::size_t i = 0; i < received.size(); ++i) {
        received[i] = local_evec[i];
      }
    }
  });
  EXPECT_EQ(region_allocations[kInactiveRank], 0u);
  EXPECT_EQ(overlaps[kInactiveRank], 2 * kTypes);
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_DOUBLE_EQ(received[i], 0.5 * i);
  }
}

// A standalone comm_p2p whose guards are false: validation, count, the
// overlap block and the standalone flush all run, and nothing allocates.
TEST(DirectiveAlloc, InactiveStandaloneP2PAllocatesNothing) {
  std::size_t allocations = 1;
  std::uint64_t directives = 0;
  int ran = 0;
  cid::rt::run(1, MachineModel::zero(), [&](RankCtx&) {
    double out[3] = {1.0, 2.0, 3.0};
    double in[3] = {};
    const Clauses clauses = Clauses()
                                .sender(0)
                                .receiver(0)
                                .sendwhen(0)
                                .receivewhen("rank > nprocs")
                                .sbuf(buf(out, "out"))
                                .rbuf(buf(in, "in"));
    int scratch = 0;
    const auto overlap = [&] { ran += 1 + scratch + (in[0] > out[0]); };
    std::uint64_t before_directives = 0;
    std::size_t before = 0;
    // Execution 0 warms the rank's executor state and interns the site;
    // executions 1..100 are measured.
    for (int i = 0; i <= 100; ++i) {
      if (i == 1) {
        before_directives = comm_stats().p2p_directives;
        before = t_allocations;
      }
      comm_p2p(clauses, overlap);
    }
    allocations = t_allocations - before;
    directives = comm_stats().p2p_directives - before_directives;
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(directives, 100u);
  EXPECT_EQ(ran, 101);
}

}  // namespace
