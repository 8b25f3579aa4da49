// Tests for the WL-LSMS mini-app: atom data fidelity, the original
// (Listing 4/6) communication paths, the directive (Listing 5/7) paths on
// every target, the Figure-1 topology, and the experiment drivers whose
// ratios reproduce the paper's Figure 4, and a directive trace that does not
// depend on the scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
#include "obs_trace.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"
#include "wllsms/comm_directive.hpp"
#include "wllsms/comm_original.hpp"
#include "wllsms/driver.hpp"

namespace {

using namespace cid::wllsms;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

void spmd(int nranks, const cid::rt::RankFn& fn) {
  cid::rt::run(nranks, MachineModel::zero(), fn);
}

// --- atom data ---------------------------------------------------------------

TEST(Atom, GenerationIsDeterministic) {
  const AtomData a = make_atom(3);
  const AtomData b = make_atom(3);
  EXPECT_TRUE(a == b);
  const AtomData c = make_atom(4);
  EXPECT_FALSE(a == c);
}

TEST(Atom, FieldInventoryMatchesListing4) {
  const AtomData atom = make_atom(0);
  EXPECT_EQ(atom.vr.n_col(), 2u);
  EXPECT_EQ(atom.rhotot.n_row(), atom.vr.n_row());
  EXPECT_EQ(atom.ec.n_col(), 2u);
  EXPECT_EQ(atom.nc.n_row(), atom.ec.n_row());
  EXPECT_EQ(atom.scalars.ztotss, 26.0);  // iron
  EXPECT_EQ(atom.scalars.numc, static_cast<int>(atom_core_rows(0)));
  EXPECT_GT(atom.payload_bytes(), 8000u);  // kilobytes-scale, per the paper
}

TEST(Atom, ResizePreservesData) {
  AtomData atom = make_atom(1);
  const double v00 = atom.vr(0, 0);
  const std::size_t old_rows = atom.vr.n_row();
  atom.resize_potential(old_rows + 50);
  EXPECT_EQ(atom.vr.n_row(), old_rows + 50);
  EXPECT_DOUBLE_EQ(atom.vr(0, 0), v00);
}

TEST(Atom, ScalarReflectionValid) {
  const auto& layout = cid::core::TypeLayoutOf<AtomScalarData>::get();
  EXPECT_TRUE(layout.validate().is_ok());
  EXPECT_EQ(layout.fields.size(), 14u);  // the fourteen packed scalars
  EXPECT_EQ(layout.extent, sizeof(AtomScalarData));
}

// --- original path -----------------------------------------------------------

TEST(OriginalComm, TransferAtomRoundTrips) {
  spmd(2, [](RankCtx& ctx) {
    auto world = cid::mpi::Comm::world();
    if (ctx.rank() == 0) {
      AtomData atom = make_atom(7);
      transfer_atom_original(world, 0, 1, atom);
    } else {
      AtomData atom;
      atom.resize_potential(atom_potential_rows(7));
      atom.resize_core(atom_core_rows(7));
      transfer_atom_original(world, 0, 1, atom);
      EXPECT_TRUE(atom == make_atom(7));
    }
  });
}

TEST(OriginalComm, TransferResizesSmallReceiver) {
  spmd(2, [](RankCtx& ctx) {
    auto world = cid::mpi::Comm::world();
    if (ctx.rank() == 0) {
      AtomData atom = make_atom(2);
      transfer_atom_original(world, 0, 1, atom);
    } else {
      AtomData atom;
      atom.resize_potential(8);  // far too small: Listing 4's resize path
      atom.resize_core(2);
      transfer_atom_original(world, 0, 1, atom);
      const AtomData expected = make_atom(2);
      // resizePotential(t+50) leaves extra rows; compare the payload window.
      EXPECT_GE(atom.vr.n_row(), expected.vr.n_row());
      EXPECT_DOUBLE_EQ(atom.vr(0, 0), expected.vr(0, 0));
      EXPECT_EQ(atom.scalars, expected.scalars);
      EXPECT_EQ(atom.nc(0, 0), expected.nc(0, 0));
    }
  });
}

TEST(OriginalComm, UninvolvedRankReturnsImmediately) {
  spmd(3, [](RankCtx& ctx) {
    auto world = cid::mpi::Comm::world();
    AtomData atom = make_atom(0);
    if (ctx.rank() == 2) {
      transfer_atom_original(world, 0, 1, atom);  // not from, not to
      SUCCEED();
    } else {
      transfer_atom_original(world, 0, 1, atom);
    }
  });
}

TEST(OriginalComm, SpinOwnerPartitionsTypes) {
  // Owners cover exactly ranks 1..size-1 and every type has one owner.
  for (int size : {2, 3, 5, 9}) {
    int total = 0;
    for (int r = 0; r < size; ++r) {
      total += spin_local_count(r, 16, size);
    }
    EXPECT_EQ(total, 16) << "size " << size;
    EXPECT_EQ(spin_local_count(0, 16, size), 0);
    for (int t = 0; t < 16; ++t) {
      const int owner = spin_owner(t, size);
      EXPECT_GE(owner, 1);
      EXPECT_LT(owner, size);
    }
  }
}

TEST(OriginalComm, SetEvecDeliversVectors) {
  for (const EvecSync sync : {EvecSync::WaitLoop, EvecSync::Waitall}) {
    spmd(4, [sync](RankCtx& ctx) {
      auto world = cid::mpi::Comm::world();
      constexpr int kTypes = 10;
      std::vector<double> ev;
      if (ctx.rank() == 0) {
        ev.resize(3 * kTypes);
        for (int i = 0; i < 3 * kTypes; ++i) ev[i] = i + 0.5;
      }
      std::vector<double> local(3 * kTypes, -1.0);
      set_evec_original(world, ev, kTypes, local, sync);
      if (ctx.rank() != 0) {
        // The i-th owned type of this rank is type (rank-1) + i*(size-1).
        int slot = 0;
        for (int t = 0; t < kTypes; ++t) {
          if (spin_owner(t, 4) != ctx.rank()) continue;
          EXPECT_DOUBLE_EQ(local[3 * slot], 3 * t + 0.5);
          EXPECT_DOUBLE_EQ(local[3 * slot + 2], 3 * t + 2.5);
          ++slot;
        }
      }
    });
  }
}

// --- directive path ----------------------------------------------------------

TEST(DirectiveComm, StageRoundTrip) {
  spmd(1, [](RankCtx&) {
    const AtomData atom = make_atom(5);
    AtomStage stage =
        make_symmetric_stage(2 * atom_potential_rows(5), 2 * atom_core_rows(5));
    load_stage(atom, stage);
    AtomData out;
    unload_stage(stage, out);
    EXPECT_EQ(out.scalars, atom.scalars);
    EXPECT_DOUBLE_EQ(out.vr(3, 1), atom.vr(3, 1));
    EXPECT_EQ(out.kc(1, 0), atom.kc(1, 0));
  });
}

class DirectiveTransferTest
    : public ::testing::TestWithParam<cid::core::Target> {};

TEST_P(DirectiveTransferTest, TransferAtomMatchesOriginal) {
  const cid::core::Target target = GetParam();
  spmd(3, [target](RankCtx& ctx) {
    const int atom_id = 9;
    const std::size_t pot = 2 * atom_potential_rows(atom_id);
    const std::size_t core = 2 * atom_core_rows(atom_id);
    AtomStage stage = make_symmetric_stage(pot, core);
    if (ctx.rank() == 0) {
      load_stage(make_atom(atom_id), stage);
    } else {
      stage.potential_count = pot;
      stage.core_count = core;
    }
    transfer_atom_directive(0, 2, stage, target);
    if (ctx.rank() == 2) {
      AtomData received;
      unload_stage(stage, received);
      EXPECT_TRUE(received == make_atom(atom_id))
          << "target " << static_cast<int>(target);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllTargets, DirectiveTransferTest,
                         ::testing::Values(cid::core::Target::Mpi2Side,
                                           cid::core::Target::Mpi1Side,
                                           cid::core::Target::Shmem));

class DirectiveEvecTest : public ::testing::TestWithParam<cid::core::Target> {
};

TEST_P(DirectiveEvecTest, SetEvecMatchesOriginal) {
  const cid::core::Target target = GetParam();
  spmd(5, [target](RankCtx& ctx) {
    constexpr int kTypes = 12;
    double* local = cid::shmem::malloc_of<double>(3 * kTypes);
    std::fill(local, local + 3 * kTypes, -1.0);
    std::vector<int> members{0, 1, 2, 3, 4};
    std::vector<double> ev;
    if (ctx.rank() == 0) {
      ev.resize(3 * kTypes);
      for (int i = 0; i < 3 * kTypes; ++i) ev[i] = i * 0.25;
    }
    ctx.barrier();
    int overlaps = 0;
    set_evec_directive(members, ev, kTypes, local, target,
                       [&](int) { ++overlaps; });
    if (ctx.rank() != 0) {
      int owned = 0;
      for (int t = 0; t < kTypes; ++t) {
        if (spin_owner(t, 5) != ctx.rank()) continue;
        ++owned;
        EXPECT_DOUBLE_EQ(local[3 * t], 3 * t * 0.25);
        EXPECT_DOUBLE_EQ(local[3 * t + 1], (3 * t + 1) * 0.25);
      }
      EXPECT_EQ(overlaps, owned);  // overlap block ran once per owned type
    } else {
      EXPECT_EQ(overlaps, 0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllTargets, DirectiveEvecTest,
                         ::testing::Values(cid::core::Target::Mpi2Side,
                                           cid::core::Target::Shmem));

TEST(DirectiveComm, SetEvecSingleMemberIsNoOp) {
  spmd(1, [](RankCtx&) {
    double* local = cid::shmem::malloc_of<double>(3);
    std::vector<double> ev(3, 1.0);
    set_evec_directive({0}, ev, 1, local, cid::core::Target::Mpi2Side);
    SUCCEED();
  });
}

// --- topology ---------------------------------------------------------------

TEST(Topology, PaperSweepMatchesFigure3Axis) {
  const auto sweep = Topology::paper_nprocs_sweep();
  ASSERT_EQ(sweep.size(), 20u);
  EXPECT_EQ(sweep.front(), 33);
  EXPECT_EQ(sweep[1], 49);
  EXPECT_EQ(sweep.back(), 337);
  for (int nprocs : sweep) {
    const Topology topo{nprocs, 16};
    EXPECT_TRUE(topo.valid());
  }
}

TEST(Topology, MembersAndInstanceMapping) {
  const Topology topo{33, 16};  // 16 instances x 2 ranks
  EXPECT_EQ(topo.ranks_per_lsms(), 2);
  EXPECT_EQ(topo.lsms_of(0), -1);
  EXPECT_EQ(topo.lsms_of(1), 0);
  EXPECT_EQ(topo.lsms_of(2), 0);
  EXPECT_EQ(topo.lsms_of(3), 1);
  EXPECT_EQ(topo.lsms_of(32), 15);
  const auto members = topo.lsms_members(3);
  EXPECT_EQ(members, (std::vector<int>{7, 8}));
}

TEST(Topology, EveryRankBelongsSomewhere) {
  const Topology topo{49, 16};
  std::vector<int> seen(49, 0);
  seen[0] = 1;  // WL
  for (int i = 0; i < 16; ++i) {
    for (int member : topo.lsms_members(i)) ++seen[member];
  }
  for (int r = 0; r < 49; ++r) EXPECT_EQ(seen[r], 1) << "rank " << r;
}

// --- experiment drivers: the Figure 4 ratios --------------------------------

class SpinRatioTest : public ::testing::Test {
 protected:
  // Small but representative scale: 1 WL + 4 LSMS x 4 ranks. Enough WL
  // steps to amortize the directive's one-time persistent-request setup,
  // as the paper's long main loop does.
  ExperimentConfig config() const {
    ExperimentConfig c;
    c.nprocs = 17;
    c.num_lsms = 4;
    c.natoms = 16;
    c.wl_steps = 24;
    return c;
  }
};

TEST_F(SpinRatioTest, WaitallValidationVariantIsAbout2_6x) {
  const double original = run_spin_scatter(config(), Variant::Original);
  const double waitall = run_spin_scatter(config(), Variant::OriginalWaitall);
  const double ratio = original / waitall;
  EXPECT_GT(ratio, 1.8) << original << " vs " << waitall;
  EXPECT_LT(ratio, 3.6);
}

TEST_F(SpinRatioTest, DirectiveMpiIsAbout4x) {
  const double original = run_spin_scatter(config(), Variant::Original);
  const double directive = run_spin_scatter(config(), Variant::DirectiveMpi);
  const double ratio = original / directive;
  EXPECT_GT(ratio, 2.5) << original << " vs " << directive;
  EXPECT_LT(ratio, 6.5);
}

TEST_F(SpinRatioTest, DirectiveShmemIsTensOfX) {
  const double original = run_spin_scatter(config(), Variant::Original);
  const double directive = run_spin_scatter(config(), Variant::DirectiveShmem);
  const double ratio = original / directive;
  EXPECT_GT(ratio, 12.0) << original << " vs " << directive;
  EXPECT_LT(ratio, 80.0);
}

TEST_F(SpinRatioTest, OrderingMatchesPaper) {
  const double original = run_spin_scatter(config(), Variant::Original);
  const double waitall = run_spin_scatter(config(), Variant::OriginalWaitall);
  const double mpi = run_spin_scatter(config(), Variant::DirectiveMpi);
  const double shmem = run_spin_scatter(config(), Variant::DirectiveShmem);
  EXPECT_LT(waitall, original);
  EXPECT_LT(mpi, waitall);
  EXPECT_LT(shmem, mpi);
}

TEST(SingleAtomDriver, AllVariantsComparable) {
  // Figure 3's claim: original and both directive targets are comparable
  // for the (large-payload) single atom data distribution. Run at the
  // paper's smallest scale (33 ranks) where one-time costs are amortized.
  ExperimentConfig config;
  config.nprocs = 33;
  config.num_lsms = 16;
  config.natoms = 16;
  const double original =
      run_single_atom_distribution(config, Variant::Original);
  const double mpi =
      run_single_atom_distribution(config, Variant::DirectiveMpi);
  const double shmem =
      run_single_atom_distribution(config, Variant::DirectiveShmem);
  EXPECT_GT(original, 0.0);
  EXPECT_GT(mpi, 0.0);
  EXPECT_GT(shmem, 0.0);
  // Each directive target lands within a small factor of the original —
  // no order-of-magnitude separation as in Figure 4's small-message regime.
  EXPECT_LT(mpi / original, 2.0);
  EXPECT_GT(mpi / original, 0.5);
  EXPECT_LT(original / shmem, 3.0);
  EXPECT_GT(original / shmem, 1.0 / 3.0);
}

TEST(SingleAtomDriver, TimeGrowsWithScale) {
  ExperimentConfig small;
  small.nprocs = 9;
  small.num_lsms = 4;
  small.natoms = 8;
  ExperimentConfig large = small;
  large.nprocs = 33;  // more ranks per LSMS: more transfers off rank 0
  const double t_small =
      run_single_atom_distribution(small, Variant::Original);
  const double t_large =
      run_single_atom_distribution(large, Variant::Original);
  EXPECT_GT(t_large, t_small);
}

TEST(OverlapDriver, DirectiveOverlapBeatsSequential) {
  ExperimentConfig config;
  config.nprocs = 9;
  config.num_lsms = 4;
  config.natoms = 16;
  config.wl_steps = 3;
  const double sequential =
      run_spin_with_compute(config, Variant::Original);
  const double overlapped =
      run_spin_with_compute(config, Variant::DirectiveMpi);
  EXPECT_LT(overlapped, sequential);
}

TEST(OverlapDriver, GpuSpeedupShrinksComputePortion) {
  ExperimentConfig cpu;
  cpu.nprocs = 9;
  cpu.num_lsms = 4;
  cpu.wl_steps = 3;
  ExperimentConfig gpu = cpu;
  gpu.compute.gpu_speedup = 10.0;
  const double cpu_time = run_spin_with_compute(cpu, Variant::DirectiveMpi);
  const double gpu_time = run_spin_with_compute(gpu, Variant::DirectiveMpi);
  EXPECT_LT(gpu_time, cpu_time);
  // Compute dominates at 19:1, so a 10x compute speedup must cut the total
  // by a large factor.
  EXPECT_GT(cpu_time / gpu_time, 3.0);
}

TEST(Driver, InvalidTopologyRejected) {
  ExperimentConfig config;
  config.nprocs = 10;  // (10-1) % 16 != 0
  EXPECT_THROW(run_spin_scatter(config, Variant::Original), cid::CidError);
}

TEST(Driver, VariantNamesAreStable) {
  EXPECT_STREQ(variant_name(Variant::Original), "original");
  EXPECT_STREQ(variant_name(Variant::DirectiveShmem), "directive-shmem");
}

}  // namespace

namespace {

// --- full Wang-Landau round trip (Figure 1 + the Section V extension) -------

TEST(WlRoundtrip, EnergyIsDeterministicAcrossTargets) {
  ExperimentConfig config;
  config.nprocs = 9;
  config.num_lsms = 4;
  config.natoms = 8;
  config.wl_steps = 3;

  double energy_mpi = 0.0;
  double energy_shmem = 0.0;
  const double t_mpi =
      run_wl_roundtrip(config, cid::core::Target::Mpi2Side, &energy_mpi);
  const double t_shmem =
      run_wl_roundtrip(config, cid::core::Target::Shmem, &energy_shmem);
  EXPECT_GT(t_mpi, 0.0);
  EXPECT_GT(t_shmem, 0.0);
  // The physics result cannot depend on the communication target.
  EXPECT_DOUBLE_EQ(energy_mpi, energy_shmem);
  EXPECT_NE(energy_mpi, 0.0);

  // And rerunning the same target reproduces both time and energy exactly.
  double energy_again = 0.0;
  const double t_again =
      run_wl_roundtrip(config, cid::core::Target::Mpi2Side, &energy_again);
  EXPECT_DOUBLE_EQ(t_again, t_mpi);
  EXPECT_DOUBLE_EQ(energy_again, energy_mpi);
}

TEST(WlRoundtrip, ScalesAcrossTopologies) {
  // k >= 2: with one rank per LSMS there are no non-privileged members,
  // so no spins are scattered and no energies computed.
  for (int nprocs : {9, 17, 33}) {
    ExperimentConfig config;
    config.nprocs = nprocs;
    config.num_lsms = 4;
    config.natoms = 8;
    config.wl_steps = 2;
    double energy = 0.0;
    const double t =
        run_wl_roundtrip(config, cid::core::Target::Mpi2Side, &energy);
    EXPECT_GT(t, 0.0) << nprocs;
    EXPECT_NE(energy, 0.0) << nprocs;
  }
}

// --- trace determinism -------------------------------------------------------

/// Set (or, with nullptr, unset) an environment variable for one scope.
class EnvScope {
 public:
  EnvScope(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvScope() {
    if (saved_.empty()) {
      ::unsetenv(name_);
    } else {
      ::setenv(name_, saved_.c_str(), 1);
    }
  }
  EnvScope(const EnvScope&) = delete;
  EnvScope& operator=(const EnvScope&) = delete;

 private:
  const char* name_;
  std::string saved_;
};

/// Every span of the Figure-3 phase on the directive MPI path, whose
/// scalaratomdata transfer is a non-contiguous receive, run under the given
/// CID_SIM_SCHED and CID_SIM_WORKERS.
std::vector<cid::obs::Span> single_atom_spans(const char* sched,
                                              const char* workers) {
  const EnvScope sched_env("CID_SIM_SCHED", sched);
  const EnvScope workers_env("CID_SIM_WORKERS", workers);
  ExperimentConfig config;
  config.nprocs = 17;
  config.num_lsms = 4;
  ObsRecordingScope recording;
  run_single_atom_distribution(config, Variant::DirectiveMpi);
  return cid::obs::spans();
}

/// The first span where `a` and `b` differ, as text (empty when equal).
std::string first_difference(const std::vector<cid::obs::Span>& a,
                             const std::vector<cid::obs::Span>& b) {
  const auto text = [](const cid::obs::Span& span) {
    std::ostringstream out;
    out << std::setprecision(17) << "rank " << span.rank << ' ' << span.cat
        << ' ' << span.name << " [" << span.begin << ", " << span.end << ']';
    return out.str();
  };
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) {
      return "span " + std::to_string(i) + ": " + text(a[i]) + " vs " +
             text(b[i]);
    }
  }
  return a.size() == b.size() ? std::string() : "span counts differ";
}

TEST(TraceDeterminism, SingleAtomSpansDoNotDependOnTheScheduler) {
  const auto reference = single_atom_spans("pool", "1");
  ASSERT_GT(count_kind(reference, cid::core::TraceEventKind::P2PDirective),
            0);
  const auto pool4 = single_atom_spans("pool", "4");
  EXPECT_EQ(first_difference(reference, pool4), "");
  const auto threads = single_atom_spans("threads", nullptr);
  EXPECT_EQ(first_difference(reference, threads), "");
}

}  // namespace
