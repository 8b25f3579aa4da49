// Scale workload: 3-D Jacobi halo exchange over a px x py x pz rank grid —
// the nearest-neighbour pattern of structured-grid codes, written as ONE
// comm_parameters region with six comm_p2p instances (one per face).
//
// The clause expressions use let() bindings for the grid strides, so the
// same six directives describe every decomposition; the translator-form
// companion (halo3d_pragmas.cpp, linted by `cidt check` in CI) carries the
// identical structure in #pragma syntax.
//
// This is the flagship workload of bench/bench_scale.cpp: with the pooled
// fiber scheduler a 10,000-rank iteration costs CID_SIM_WORKERS OS threads
// and a few wall-clock seconds, not 10k threads.
//
// Build & run:  ./halo3d [nranks] [iters]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/core.hpp"
#include "rt/runtime.hpp"

namespace {

constexpr int kSide = 6;                    // local brick is kSide^3 cells
constexpr int kFace = kSide * kSide;        // cells per face

/// Near-cubic factorization nranks = px * py * pz.
struct Dims {
  int px = 1, py = 1, pz = 1;
};

Dims choose_dims(int nranks) {
  Dims d;
  int rest = nranks;
  auto largest_divisor_at_most = [](int n, int cap) {
    for (int p = cap; p >= 1; --p) {
      if (n % p == 0) return p;
    }
    return 1;
  };
  int cube = 1;
  while ((cube + 1) * (cube + 1) * (cube + 1) <= nranks) ++cube;
  d.px = largest_divisor_at_most(rest, cube);
  rest /= d.px;
  int square = 1;
  while ((square + 1) * (square + 1) <= rest) ++square;
  d.py = largest_divisor_at_most(rest, square);
  d.pz = rest / d.py;
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cid::core;
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 64;
  const int iters = argc > 2 ? std::atoi(argv[2]) : 3;
  const Dims dims = choose_dims(nranks);

  std::printf("3-D halo exchange: %d ranks as %d x %d x %d, local brick "
              "%d^3, %d iterations\n",
              nranks, dims.px, dims.py, dims.pz, kSide, iters);

  // Each rank writes its own brick sum; main prints them after the run, in
  // rank order, so the output does not depend on how the host schedules
  // the ranks.
  std::vector<double> sums(static_cast<std::size_t>(nranks), 0.0);

  auto result = cid::rt::run(nranks, [&](cid::rt::RankCtx& ctx) {
    const int me = ctx.rank();
    const int px = dims.px, py = dims.py, pz = dims.pz;
    const int pxy = px * py;
    const int x = me % px, y = (me / px) % py, z = me / pxy;

    std::vector<double> brick(kSide * kSide * kSide, 1.0 + me);
    // One contiguous buffer per face and direction; packed from the brick
    // before the exchange, folded back after.
    std::vector<double> out[6], in[6];
    for (auto& f : out) f.assign(kFace, 0.0);
    for (auto& f : in) f.assign(kFace, 0.0);

    for (int it = 0; it < iters; ++it) {
      for (int face = 0; face < 6; ++face) {
        for (int i = 0; i < kFace; ++i) {
          out[face][i] = brick[(face * 37 + i) % brick.size()];
        }
      }
      ctx.charge_compute(1e-7 * 6 * kFace);

      // One region, six faces. receiver() is whom I send to, sender() whom
      // I receive from; the coordinate guards exclude the grid boundary.
      comm_parameters(
          Clauses()
              .count(kFace)
              .max_comm_iter(6)
              .let("px", px)
              .let("py", py)
              .let("pz", pz)
              .let("pxy", pxy),
          [&](Region& region) {
            // +x / -x (stride 1)
            region.p2p(Clauses()
                           .receiver("rank+1")
                           .sendwhen("rank%px < px-1")
                           .sender("rank-1")
                           .receivewhen("rank%px > 0")
                           .sbuf(buf_n(out[0].data(), kFace, "xp_out"))
                           .rbuf(buf_n(in[1].data(), kFace, "xm_in")));
            region.p2p(Clauses()
                           .receiver("rank-1")
                           .sendwhen("rank%px > 0")
                           .sender("rank+1")
                           .receivewhen("rank%px < px-1")
                           .sbuf(buf_n(out[1].data(), kFace, "xm_out"))
                           .rbuf(buf_n(in[0].data(), kFace, "xp_in")));
            // +y / -y (stride px)
            region.p2p(Clauses()
                           .receiver("rank+px")
                           .sendwhen("(rank/px)%py < py-1")
                           .sender("rank-px")
                           .receivewhen("(rank/px)%py > 0")
                           .sbuf(buf_n(out[2].data(), kFace, "yp_out"))
                           .rbuf(buf_n(in[3].data(), kFace, "ym_in")));
            region.p2p(Clauses()
                           .receiver("rank-px")
                           .sendwhen("(rank/px)%py > 0")
                           .sender("rank+px")
                           .receivewhen("(rank/px)%py < py-1")
                           .sbuf(buf_n(out[3].data(), kFace, "ym_out"))
                           .rbuf(buf_n(in[2].data(), kFace, "yp_in")));
            // +z / -z (stride px*py)
            region.p2p(Clauses()
                           .receiver("rank+pxy")
                           .sendwhen("rank/pxy < pz-1")
                           .sender("rank-pxy")
                           .receivewhen("rank/pxy > 0")
                           .sbuf(buf_n(out[4].data(), kFace, "zp_out"))
                           .rbuf(buf_n(in[5].data(), kFace, "zm_in")));
            region.p2p(
                Clauses()
                    .receiver("rank-pxy")
                    .sendwhen("rank/pxy > 0")
                    .sender("rank+pxy")
                    .receivewhen("rank/pxy < pz-1")
                    .sbuf(buf_n(out[5].data(), kFace, "zm_out"))
                    .rbuf(buf_n(in[4].data(), kFace, "zp_in")),
                [&] {
                  // Overlap: relax the interior while the faces fly.
                  for (std::size_t i = 0; i < brick.size(); ++i) {
                    brick[i] = 0.5 * brick[i] + 0.5;
                  }
                  ctx.charge_compute(1e-7 * brick.size());
                });
          });

      // Fold the received halos back into the brick (boundary faces of the
      // grid received nothing and fold zeros — the fixed boundary).
      const bool has[6] = {x < px - 1, x > 0, y < py - 1,
                           y > 0,      z < pz - 1, z > 0};
      for (int face = 0; face < 6; ++face) {
        if (!has[face]) continue;
        for (int i = 0; i < kFace; ++i) {
          brick[(face * 53 + i) % brick.size()] += 0.25 * in[face][i];
        }
      }
      ctx.charge_compute(1e-7 * 6 * kFace);
    }

    double sum = 0.0;
    for (double v : brick) sum += v;
    sums[static_cast<std::size_t>(me)] = sum;
  });

  for (int rank = 0; rank < nranks; ++rank) {
    if (rank >= 2 && rank != nranks - 1) continue;
    std::printf("rank %5d (%d,%d,%d): brick sum %.3f\n", rank,
                rank % dims.px, (rank / dims.px) % dims.py,
                rank / (dims.px * dims.py),
                sums[static_cast<std::size_t>(rank)]);
  }
  std::printf("done; virtual makespan = %.2f us\n", result.makespan() * 1e6);
  return 0;
}
