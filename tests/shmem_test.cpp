// Tests for miniSHMEM: symmetric heap discipline, puts/gets, completion
// (quiet / barrier_all / wait_until), and virtual-time behaviour.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"

namespace {

using cid::rt::RankCtx;
using cid::simnet::MachineModel;
namespace shmem = cid::shmem;

void spmd(int nranks, const cid::rt::RankFn& fn) {
  cid::rt::run(nranks, MachineModel::zero(), fn);
}

TEST(ShmemHeap, SymmetricAllocationSameOffsets) {
  spmd(4, [](RankCtx& ctx) {
    auto& heap = shmem::SymmetricHeap::of_world(ctx);
    double* a = shmem::malloc_of<double>(10);
    double* b = shmem::malloc_of<double>(5);
    EXPECT_TRUE(shmem::is_symmetric(a));
    EXPECT_TRUE(shmem::is_symmetric(b));
    EXPECT_GT(b, a);
    // Every PE allocated the same amount.
    ctx.barrier();
    EXPECT_EQ(heap.allocated(0), heap.allocated(ctx.rank()));
  });
}

TEST(ShmemHeap, AsymmetricAllocationDetected) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx& ctx) {
                      // PE 0 allocates 8 bytes, PE 1 allocates 16 — the heap
                      // must reject the divergence.
                      ctx.barrier();
                      shmem::malloc_sym(ctx.rank() == 0 ? 8 : 16);
                      ctx.barrier();
                    }),
               cid::CidError);
}

TEST(ShmemHeap, NonSymmetricAddressRejectedByPut) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx& ctx) {
                      double local = 0.0;
                      double value = 1.0;
                      if (ctx.rank() == 0) {
                        shmem::put(&local, &value, 1, 1);
                      }
                    }),
               cid::CidError);
}

TEST(ShmemHeap, StackVariableIsNotSymmetric) {
  spmd(1, [](RankCtx&) {
    int local = 0;
    EXPECT_FALSE(shmem::is_symmetric(&local));
  });
}

TEST(ShmemPut, PutThenBarrierDelivers) {
  spmd(2, [](RankCtx& ctx) {
    double* dest = shmem::malloc_of<double>(4);
    std::fill(dest, dest + 4, 0.0);
    ctx.barrier();
    if (ctx.rank() == 0) {
      std::array<double, 4> src{1.5, 2.5, 3.5, 4.5};
      shmem::put(dest, src.data(), 4, 1);
    }
    shmem::barrier_all();
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(dest[0], 1.5);
      EXPECT_DOUBLE_EQ(dest[3], 4.5);
    } else {
      EXPECT_DOUBLE_EQ(dest[0], 0.0);
    }
  });
}

TEST(ShmemPut, SizeNamedVariantsMoveRightBytes) {
  spmd(2, [](RankCtx& ctx) {
    auto* dest = static_cast<std::uint8_t*>(shmem::malloc_sym(64));
    std::fill(dest, dest + 64, std::uint8_t{0});
    ctx.barrier();
    if (ctx.rank() == 0) {
      std::array<std::uint8_t, 2> b8{1, 2};
      std::array<std::uint16_t, 2> b16{3, 4};
      std::array<std::uint32_t, 2> b32{5, 6};
      std::array<std::uint64_t, 2> b64{7, 8};
      shmem::put8(dest, b8.data(), 2, 1);
      shmem::put16(dest + 8, b16.data(), 2, 1);
      shmem::put32(dest + 16, b32.data(), 2, 1);
      shmem::put64(dest + 24, b64.data(), 2, 1);
    }
    shmem::barrier_all();
    if (ctx.rank() == 1) {
      EXPECT_EQ(dest[1], 2);
      std::uint16_t h = 0;
      std::memcpy(&h, dest + 10, 2);
      EXPECT_EQ(h, 4);
      std::uint32_t w = 0;
      std::memcpy(&w, dest + 20, 4);
      EXPECT_EQ(w, 6);
      std::uint64_t q = 0;
      std::memcpy(&q, dest + 32, 8);
      EXPECT_EQ(q, 8);
    }
  });
}

TEST(ShmemGet, BlockingGetReadsRemote) {
  spmd(2, [](RankCtx& ctx) {
    int* data = shmem::malloc_of<int>(8);
    for (int i = 0; i < 8; ++i) data[i] = ctx.rank() * 100 + i;
    shmem::barrier_all();
    if (ctx.rank() == 0) {
      std::array<int, 8> local{};
      shmem::getmem(local.data(), data, 8 * sizeof(int), 1);
      EXPECT_EQ(local[0], 100);
      EXPECT_EQ(local[7], 107);
    }
    shmem::barrier_all();
  });
}

TEST(ShmemSync, WaitUntilObservesFlag) {
  spmd(2, [](RankCtx& ctx) {
    auto* flag = shmem::malloc_of<std::uint64_t>(1);
    double* data = shmem::malloc_of<double>(3);
    *flag = 0;
    std::fill(data, data + 3, 0.0);
    ctx.barrier();
    if (ctx.rank() == 0) {
      std::array<double, 3> spin{0.1, 0.2, 0.3};
      shmem::put(data, spin.data(), 3, 1);
      shmem::fence();
      shmem::put_value64(flag, 1, 1);
      shmem::quiet();
    } else {
      shmem::wait_until(flag, shmem::Cmp::Ge, 1);
      EXPECT_DOUBLE_EQ(data[0], 0.1);
      EXPECT_DOUBLE_EQ(data[2], 0.3);
    }
  });
}

TEST(ShmemSync, WaitUntilComparisons) {
  spmd(1, [](RankCtx&) {
    auto* flag = shmem::malloc_of<std::uint64_t>(1);
    *flag = 5;
    shmem::put_value64(flag, 7, 0);  // self-put
    shmem::wait_until(flag, shmem::Cmp::Eq, 7);
    shmem::wait_until(flag, shmem::Cmp::Ne, 5);
    shmem::wait_until(flag, shmem::Cmp::Gt, 6);
    shmem::wait_until(flag, shmem::Cmp::Le, 7);
    shmem::wait_until(flag, shmem::Cmp::Lt, 8);
    SUCCEED();
  });
}

TEST(ShmemSync, WaitUntilFlagMustBeSymmetric) {
  EXPECT_THROW(spmd(1,
                    [](RankCtx&) {
                      std::uint64_t local = 0;
                      shmem::wait_until(&local, shmem::Cmp::Eq, 0);
                    }),
               cid::CidError);
}

TEST(ShmemTime, QuietCompletesOutgoingWire) {
  const auto model = MachineModel::cray_xk7_gemini();
  cid::rt::run(2, model, [&](RankCtx& ctx) {
    double* dest = shmem::malloc_of<double>(1024);
    ctx.barrier();
    if (ctx.rank() == 0) {
      std::vector<double> src(1024, 1.0);
      const double before = ctx.clock().now();
      shmem::put(dest, src.data(), 1024, 1);
      // The put returns after injection (overhead + NIC occupancy), well
      // before the remote delivery completes.
      const double injection =
          model.shmem.injection_time(1024 * sizeof(double));
      EXPECT_NEAR(ctx.clock().now() - before, injection, 1e-9);
      shmem::quiet();
      // After quiet the clock covers latency + bytes/bandwidth.
      const double wire = 1024 * sizeof(double) / model.shmem.bytes_per_second;
      EXPECT_GE(ctx.clock().now() - before, model.shmem.latency + wire);
    }
    shmem::barrier_all();
  });
}

TEST(ShmemTime, SmallMessageInjectionBeatsMpi) {
  const auto model = MachineModel::cray_xk7_gemini();
  // The paper's core observation: SHMEM wins on 8-256 B messages.
  EXPECT_LT(model.shmem.send_overhead + model.shmem.latency,
            model.mpi_two_sided.send_overhead +
                model.mpi_two_sided.recv_overhead +
                model.mpi_two_sided.latency);
}

TEST(ShmemPut, ManyToOneCounterAccumulates) {
  spmd(4, [](RankCtx& ctx) {
    // Each non-root PE writes its slot on PE 0; one barrier completes all.
    int* slots = shmem::malloc_of<int>(4);
    std::fill(slots, slots + 4, -1);
    ctx.barrier();
    if (ctx.rank() != 0) {
      int value = ctx.rank() * 11;
      shmem::put(slots + ctx.rank(), &value, 1, 0);
    }
    shmem::barrier_all();
    if (ctx.rank() == 0) {
      EXPECT_EQ(slots[1], 11);
      EXPECT_EQ(slots[2], 22);
      EXPECT_EQ(slots[3], 33);
      EXPECT_EQ(slots[0], -1);
    }
  });
}

TEST(ShmemHeap, ExhaustionThrows) {
  EXPECT_THROW(
      spmd(1,
           [](RankCtx&) {
             // Exceed the default per-PE capacity in 1 MiB chunks.
             for (int i = 0; i < 20; ++i) {
               shmem::malloc_sym(1u << 20);
             }
           }),
      cid::CidError);
}

}  // namespace

namespace {

// --- key-coordinated internal allocations (shared_flags) --------------------

TEST(ShmemSharedFlags, SameOffsetRegardlessOfCallOrder) {
  spmd(4, [](RankCtx& ctx) {
    // Ranks call in different orders and interleave user allocations; the
    // same key must land at the same offset everywhere.
    auto& heap = shmem::SymmetricHeap::of_world(ctx);
    std::uint64_t* flags_a = nullptr;
    std::uint64_t* flags_b = nullptr;
    if (ctx.rank() % 2 == 0) {
      flags_a = shmem::shared_flags("site.a", 4);
      flags_b = shmem::shared_flags("site.b", 4);
    } else {
      flags_b = shmem::shared_flags("site.b", 4);
      flags_a = shmem::shared_flags("site.a", 4);
    }
    // Offsets must agree across ranks: write via put and observe.
    ctx.barrier();
    if (ctx.rank() == 0) {
      shmem::put_value64(&flags_a[0], 111, 3);
      shmem::put_value64(&flags_b[0], 222, 3);
      shmem::quiet();
    }
    ctx.barrier();
    if (ctx.rank() == 3) {
      EXPECT_EQ(flags_a[0], 111u);
      EXPECT_EQ(flags_b[0], 222u);
    }
    (void)heap;
  });
}

TEST(ShmemSharedFlags, SomeRanksNeverCall) {
  spmd(3, [](RankCtx& ctx) {
    // Rank 1 never asks for the key; ranks 0 and 2 still agree.
    if (ctx.rank() == 1) {
      ctx.barrier();
      ctx.barrier();
      return;
    }
    std::uint64_t* flags = shmem::shared_flags("partial.site", 2);
    ctx.barrier();
    if (ctx.rank() == 0) {
      shmem::put_value64(&flags[1], 77, 2);
      shmem::quiet();
    }
    ctx.barrier();
    if (ctx.rank() == 2) { EXPECT_EQ(flags[1], 77u); }
  });
}

TEST(ShmemSharedFlags, ZeroInitialized) {
  spmd(1, [](RankCtx&) {
    std::uint64_t* flags = shmem::shared_flags("fresh", 8);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(flags[i], 0u);
  });
}

// The heap's pages are zero pages from the kernel: a World's heap reads 0
// even when an earlier World's heap was written all over.
TEST(ShmemHeap, FreshWorldReadsZeroAfterEarlierWorldWrote) {
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr std::size_t kFlags = 32;
  spmd(4, [&](RankCtx& ctx) {
    auto* block = static_cast<unsigned char*>(shmem::malloc_sym(kBytes));
    std::memset(block, 0xAB, kBytes);
    std::uint64_t* flags = shmem::shared_flags("reused.site", kFlags);
    for (std::size_t i = 0; i < kFlags; ++i) flags[i] = ~std::uint64_t{0};
    ctx.barrier();
  });
  spmd(4, [&](RankCtx& ctx) {
    const auto* block =
        static_cast<const unsigned char*>(shmem::malloc_sym(kBytes));
    const std::uint64_t* flags = shmem::shared_flags("reused.site", kFlags);
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < kBytes; ++i) nonzero += block[i] != 0;
    for (std::size_t i = 0; i < kFlags; ++i) nonzero += flags[i] != 0;
    EXPECT_EQ(nonzero, 0u) << "PE " << ctx.rank();
  });
}

TEST(ShmemHeap, TranslateRejectsAddressesOutsideTheHeap) {
  spmd(2, [](RankCtx& ctx) {
    auto& heap = shmem::SymmetricHeap::of_world(ctx);
    auto* first = static_cast<std::byte*>(shmem::malloc_sym(64));
    auto* top = reinterpret_cast<std::byte*>(shmem::shared_flags("top", 2));
    const int peer = 1 - ctx.rank();
    // The first block starts the heap and the flags end it.
    EXPECT_NO_THROW(heap.translate(ctx.rank(), first, peer, 64));
    EXPECT_NO_THROW(heap.translate(ctx.rank(), top, peer, 16));
    double local = 0.0;
    EXPECT_THROW(heap.translate(ctx.rank(), &local, peer, sizeof(local)),
                 cid::CidError);
    EXPECT_THROW(heap.translate(ctx.rank(), first - 1, peer, 1),
                 cid::CidError);
    EXPECT_THROW(heap.translate(ctx.rank(), top, peer, 17), cid::CidError);
    EXPECT_THROW(heap.translate(ctx.rank(), first, 2, 8), cid::CidError);
  });
}

/// Resident set of this process in KiB (VmRSS of /proc/self/status).
long resident_kib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib;
}

// A PE pays only for the heap pages it touches: 337 PEs with one small
// block each stay far below 337 x the 1 MiB default capacity.
TEST(ShmemHeap, UntouchedHeapCostsNoMemory) {
  const long before = resident_kib();
  ASSERT_GT(before, 0);
  long during = 0;
  spmd(337, [&](RankCtx& ctx) {
    auto* block = shmem::malloc_of<double>(16);
    for (int i = 0; i < 16; ++i) block[i] = ctx.rank() + i;
    ctx.barrier();
    if (ctx.rank() == 0) during = resident_kib();
    ctx.barrier();
  });
  EXPECT_LT(during - before, 64L * 1024);
}

TEST(ShmemSharedFlags, ArenaAndUserAllocationsDoNotCollide) {
  spmd(1, [](RankCtx&) {
    // Fill most of the heap from the bottom, then internal from the top.
    auto* big = shmem::malloc_sym(700 * 1024);
    auto* flags = shmem::shared_flags("top", 1024);
    EXPECT_TRUE(shmem::is_symmetric(big));
    EXPECT_TRUE(shmem::is_symmetric(flags));
    EXPECT_GT(static_cast<void*>(flags), static_cast<void*>(big));
    // Exhausting the remaining space from either side throws cleanly.
    EXPECT_THROW(shmem::malloc_sym(400 * 1024), cid::CidError);
  });
}

}  // namespace

namespace {

TEST(ShmemCollectives, Broadcast64) {
  spmd(5, [](RankCtx& ctx) {
    auto* dest = shmem::malloc_of<std::uint64_t>(3);
    std::uint64_t source[3] = {0, 0, 0};
    if (ctx.rank() == 2) {
      source[0] = 7;
      source[1] = 8;
      source[2] = 9;
    }
    ctx.barrier();
    shmem::broadcast64(dest, source, 3, 2);
    EXPECT_EQ(dest[0], 7u);
    EXPECT_EQ(dest[2], 9u);
  });
}

TEST(ShmemCollectives, Fcollect64) {
  spmd(4, [](RankCtx& ctx) {
    auto* dest = shmem::malloc_of<std::uint64_t>(4);
    std::uint64_t mine[1] = {static_cast<std::uint64_t>(100 + ctx.rank())};
    ctx.barrier();
    shmem::fcollect64(dest, mine, 1);
    for (int pe = 0; pe < 4; ++pe) {
      EXPECT_EQ(dest[pe], static_cast<std::uint64_t>(100 + pe));
    }
  });
}

}  // namespace
