// halo3d-dir: the six-face 3-D halo of examples/halo3d.cpp, written as one
// core::comm_parameters region with six p2p calls, on 4096 ranks (a 16^3
// grid) under the Cray XK7 model. Every step is checked against a plain
// single-threaded serial stencil of the same problem, whose time per step is
// reported as the HPC baseline.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/core.hpp"
#include "mpi/mpi.hpp"
#include "stepped.hpp"

namespace perfbench {
namespace {

using cid::core::Clauses;
using cid::core::Region;
using cid::core::buf_n;

constexpr int kGrid = 16;  // ranks per grid dimension
constexpr int kRanks = kGrid * kGrid * kGrid;
constexpr int kSide = 6;   // local brick is kSide^3 cells
constexpr int kCells = kSide * kSide * kSide;
constexpr int kFace = kSide * kSide;
constexpr int kReps = 6;

/// Payload envelopes per step: one per direction per internal face.
constexpr double kEnvelopesPerStep = 2.0 * 3 * (kGrid - 1) * kGrid * kGrid;

/// Virtual time of one steady-state step (XK7 model), pinned: the halo's
/// virtual cost depends only on the pattern and the model, never on the
/// payload values, so any change here is a behaviour change.
constexpr double kVirtualStepSeconds = 9.054560000000005e-05;

struct Brick {
  std::vector<double> cells;
  double out[6][kFace];
  double in[6][kFace];
};

void init_brick(Brick& b, std::uint64_t seed, int rank) {
  b.cells.resize(kCells);
  for (int i = 0; i < kCells; ++i) {
    b.cells[i] = 1.0 + rank +
                 unit(mix(seed ^ mix(static_cast<std::uint64_t>(rank) *
                                         kCells + i)));
  }
  for (auto& face : b.in) {
    for (double& v : face) v = 0.0;
  }
}

// The three numeric phases of a step, shared verbatim by the SPMD ranks and
// the serial reference so both perform identical floating-point operations.
void pack_faces(Brick& b) {
  for (int face = 0; face < 6; ++face) {
    for (int i = 0; i < kFace; ++i) {
      b.out[face][i] = b.cells[(face * 37 + i) % kCells];
    }
  }
}

void relax(Brick& b) {
  for (double& v : b.cells) v = 0.5 * v + 0.5;
}

void fold(Brick& b, const bool has[6]) {
  for (int face = 0; face < 6; ++face) {
    if (!has[face]) continue;
    for (int i = 0; i < kFace; ++i) {
      b.cells[(face * 53 + i) % kCells] += 0.25 * b.in[face][i];
    }
  }
}

/// Bitwise digest of a brick: any change to any cell shows.
std::uint64_t checksum(const Brick& b) {
  std::uint64_t h = 0;
  for (double v : b.cells) h = digest(h, v);
  return h;
}

/// Direction d: 0:+x 1:-x 2:+y 3:-y 4:+z 5:-z.
void neighbours(int rank, int peer[6], bool has[6]) {
  const int x = rank % kGrid, y = (rank / kGrid) % kGrid;
  const int z = rank / (kGrid * kGrid);
  const int stride[3] = {1, kGrid, kGrid * kGrid};
  const int coord[3] = {x, y, z};
  for (int axis = 0; axis < 3; ++axis) {
    peer[2 * axis] = rank + stride[axis];
    peer[2 * axis + 1] = rank - stride[axis];
    has[2 * axis] = coord[axis] < kGrid - 1;
    has[2 * axis + 1] = coord[axis] > 0;
  }
}

/// The serial stencil: every brick packs, relaxes, receives its neighbours'
/// faces and folds, step by step. ms counts the stencil alone, not the
/// digests taken for the check.
struct Serial {
  std::vector<Brick> bricks;
  double ms = 0.0;

  explicit Serial(std::uint64_t seed) : bricks(kRanks) {
    for (int r = 0; r < kRanks; ++r) init_brick(bricks[r], seed, r);
  }

  void step(std::vector<std::uint64_t>& digests) {
    const std::int64_t start = now_ns();
    for (Brick& b : bricks) pack_faces(b);
    for (Brick& b : bricks) relax(b);
    for (int r = 0; r < kRanks; ++r) {
      int peer[6];
      bool has[6];
      neighbours(r, peer, has);
      Brick& b = bricks[r];
      for (int d = 0; d < 6; ++d) {
        if (!has[d]) continue;
        // The face arriving from peer[d] is the one it sends back: d ^ 1.
        const double* src = bricks[peer[d]].out[d ^ 1];
        for (int i = 0; i < kFace; ++i) b.in[d][i] = src[i];
      }
      fold(b, has);
    }
    ms += static_cast<double>(now_ns() - start) * 1e-6;
    for (int r = 0; r < kRanks; ++r) digests[r] = checksum(bricks[r]);
  }
};

}  // namespace

Outcome run_halo3d_dir(const Args& args, double seconds, Tracer* tracer,
                       bool counts) {
  Outcome out;
  const std::uint32_t t_world =
      tracer != nullptr ? tracer->intern("mpi.comm_world") : 0;
  const std::uint32_t t_region =
      tracer != nullptr ? tracer->intern("core.comm_parameters") : 0;
  const std::uint32_t t_p2p =
      tracer != nullptr ? tracer->intern("core.p2p") : 0;
  const auto model = cid::simnet::MachineModel::cray_xk7_gemini();
  RunTotals totals;
  double serial_ms = 0;
  CoreTotals core;
  {
    std::uint64_t h = 0;
    for (const Brick& b : Serial(args.seed).bricks) {
      for (double v : b.cells) h = digest(h, v);
    }
    out.notes.push_back(inputs_note(h));
  }
  obs_start(counts);

  // The reference job runs on as many threads as there are workers, before
  // each repetition and after the last; inside one, all ranks step in
  // lockstep and it would stall them.
  out.ref_threads = args.workers;
  out.gauge();
  for (int rep = 0; rep < kReps; ++rep) {
    StepLoop loop(seconds / kReps, tracer);
    std::vector<std::vector<std::uint64_t>> digests(kRanks);
    const std::int64_t start = now_ns();
    const auto result = cid::rt::run(
        kRanks, model,
        [&](cid::rt::RankCtx& ctx) {
          loop.body_entered();
          const int me = ctx.rank();
          {
            Span span(tracer, me, t_world);
            (void)cid::mpi::Comm::world();
          }
          Brick b;
          init_brick(b, args.seed, me);
          int peer[6];
          bool has[6];
          neighbours(me, peer, has);
          for (int k = 0;; ++k) {
            Span sample(tracer, me, 0);
            pack_faces(b);
            ctx.charge_compute(1e-7 * 6 * kFace);
            {
              Span region_span(tracer, me, t_region);
              cid::core::comm_parameters(
                  Clauses().count(kFace).max_comm_iter(6).let("g", kGrid).let(
                      "gg", kGrid * kGrid),
                  [&](Region& region) {
                    // Face d goes to peer[d] and arrives there as in[d ^ 1];
                    // the guards exclude the grid boundary.
                    static const char* const kTo[6] = {
                        "rank+1", "rank-1", "rank+g", "rank-g", "rank+gg",
                        "rank-gg"};
                    static const char* const kSendWhen[6] = {
                        "rank%g < g-1",       "rank%g > 0",
                        "(rank/g)%g < g-1",   "(rank/g)%g > 0",
                        "rank/gg < g-1",      "rank/gg > 0"};
                    for (int d = 0; d < 6; ++d) {
                      Span p2p_span(tracer, me, t_p2p);
                      const Clauses clauses =
                          Clauses()
                              .receiver(kTo[d])
                              .sendwhen(kSendWhen[d])
                              .sender(kTo[d ^ 1])
                              .receivewhen(kSendWhen[d ^ 1])
                              .sbuf(buf_n(b.out[d], kFace, "face_out"))
                              .rbuf(buf_n(b.in[d ^ 1], kFace, "face_in"));
                      if (d < 5) {
                        region.p2p(clauses);
                      } else {
                        // Overlap: relax the interior while the faces fly.
                        region.p2p(clauses, [&] {
                          relax(b);
                          ctx.charge_compute(1e-7 * kCells);
                        });
                      }
                    }
                  });
            }
            fold(b, has);
            ctx.charge_compute(1e-7 * 6 * kFace);
            digests[me].push_back(checksum(b));
            if (!loop.end_step(ctx, k)) break;
          }
          core.add_mine();
          loop.body_exited();
        },
        pinned_options(args.workers));
    const std::int64_t end = now_ns();
    loop.collect(start, kEnvelopesPerStep, out);
    out.gauge();
    totals.add(loop, result, start, end);
    const int steps = loop.steps();

    // Check every step against the serial stencil, and every timed step's
    // virtual time against the pinned model cost: exactly for the first
    // timed step; later differences of the growing clock carry rounding, so
    // they must agree to 1e-9 relative.
    Serial serial(args.seed);
    std::vector<std::uint64_t> expect(kRanks);
    for (int k = 0; k < steps; ++k) {
      serial.step(expect);
      bool ok = true;
      for (int r = 0; r < kRanks; ++r) ok = ok && digests[r][k] == expect[r];
      if (k >= kWarmupSteps) {
        const double dv = loop.virtual_after(k) - loop.virtual_after(k - 1);
        ok = ok && (k == kWarmupSteps
                        ? dv == kVirtualStepSeconds
                        : std::abs(dv - kVirtualStepSeconds) <=
                              1e-9 * kVirtualStepSeconds);
        if (rep == 0 && k == kWarmupSteps) {
          char exact[64];
          std::snprintf(exact, sizeof exact, "virtual_step_s %.17g", dv);
          out.notes.push_back(exact);
        }
        out.attempted += 1;
        out.failed += ok ? 0 : 1;
      } else if (!ok) {
        out.setup_ok = false;
      }
    }
    serial_ms += serial.ms / steps;
  }

  const ObsCounts obs = obs_finish();
  char line[160];
  std::snprintf(line, sizeof line,
                "serial_stencil_ms_per_step %.4f (single-threaded baseline)",
                serial_ms / kReps);
  out.notes.push_back(line);
  if (counts) {
    out.setup_ok = out.setup_ok &&
                   obs.deliver_messages == kEnvelopesPerStep * totals.steps;
    totals.record_counts(obs, out);
    core.record(totals.steps, out);
  }
  if (tracer != nullptr) totals.record_times(out);
  return out;
}

}  // namespace perfbench
