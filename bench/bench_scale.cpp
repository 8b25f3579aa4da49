// bench_scale - WALL-CLOCK cost of running the runtime BIG: 1k / 4k / 10k
// ranks on one machine.
//
// The figure benches ask "is the virtual time right?"; bench_hotpath asks
// "how fast is one envelope?". This bench asks the scaling question: how
// long does the host take to *simulate* an O(10k)-rank program at all. It
// exercises the pooled fiber scheduler (10k ranks on CID_SIM_WORKERS OS
// threads), the sharded barrier, and the envelope arena — see the Scaling
// section of docs/PERF.md.
//
// Workloads (each also ships as a runnable example under examples/):
//   halo3d     3-D halo exchange, six neighbours per rank (examples/halo3d
//              is the directive form of the same pattern)
//   particle   particle migration on a ring: counts, then variable-size
//              payloads (examples/particle_exchange.cpp)
//   shuffle    all-to-all with fan-out capped at 64 peers per rank
//              (examples/shuffle.cpp)
//   rpc        request/reply fan-out, one server per 64 clients
//              (examples/rpc_fanout.cpp)
//
// Reported per (workload, ranks): wall seconds, delivered envelopes (exact,
// computed from the pattern), envelopes/sec, and ranks per second of wall
// time (how much world the host simulates per second, including rank
// spawn). Emits BENCH_scale.json (--out FILE); --quick / CID_BENCH_QUICK=1
// runs only the 1k- and 4k-rank rows of each workload (the CI gate —
// tools/check_bench.py — compares those against the committed JSON, so
// per-envelope cost that grows with P shows up there). For profiling one
// case, --only <workload> runs a single workload and --ranks N a single
// rank count.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"

namespace {

using namespace cid;
using rt::RankCtx;
using simnet::MachineModel;
using Clock = std::chrono::steady_clock;

struct ScaleResult {
  std::string name;
  int ranks = 0;
  std::uint64_t envelopes = 0;  ///< payload envelopes the pattern delivers
  double seconds = 0.0;         ///< wall time of the whole rt::run
  rt::RunResult run;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// halo3d: six-neighbour exchange on a px x py x pz grid
// ---------------------------------------------------------------------------

struct Dims {
  int px = 1, py = 1, pz = 1;
};

Dims choose_dims(int nranks) {
  auto largest_divisor_at_most = [](int n, int cap) {
    for (int p = cap; p >= 1; --p) {
      if (n % p == 0) return p;
    }
    return 1;
  };
  Dims d;
  int cube = 1;
  while ((cube + 1) * (cube + 1) * (cube + 1) <= nranks) ++cube;
  d.px = largest_divisor_at_most(nranks, cube);
  int rest = nranks / d.px;
  int square = 1;
  while ((square + 1) * (square + 1) <= rest) ++square;
  d.py = largest_divisor_at_most(rest, square);
  d.pz = rest / d.py;
  return d;
}

ScaleResult halo3d(int nranks, int iters) {
  constexpr int kFace = 16;  // doubles per face
  const Dims dims = choose_dims(nranks);
  // Directed internal faces of the grid: every adjacency carries one
  // envelope per direction per iteration.
  const std::uint64_t adjacencies =
      static_cast<std::uint64_t>(dims.px - 1) * dims.py * dims.pz +
      static_cast<std::uint64_t>(dims.px) * (dims.py - 1) * dims.pz +
      static_cast<std::uint64_t>(dims.px) * dims.py * (dims.pz - 1);

  const auto start = Clock::now();
  auto run = rt::run(nranks, MachineModel::zero(), [&](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    const int me = ctx.rank();
    const int px = dims.px, py = dims.py, pz = dims.pz, pxy = px * py;
    const int x = me % px, y = (me / px) % py, z = me / pxy;

    // Direction d: 0:+x 1:-x 2:+y 3:-y 4:+z 5:-z; opposite(d) = d^1.
    const int neighbour[6] = {me + 1, me - 1, me + px, me - px, me + pxy,
                              me - pxy};
    const bool has[6] = {x < px - 1, x > 0, y < py - 1,
                         y > 0,      z < pz - 1, z > 0};

    std::vector<double> out(6 * kFace, 1.0 + me);
    std::vector<double> in(6 * kFace, 0.0);
    for (int it = 0; it < iters; ++it) {
      std::vector<mpi::Request> reqs;
      reqs.reserve(12);
      for (int d = 0; d < 6; ++d) {
        // The message arriving from neighbour[d] travels direction d^1.
        if (has[d]) {
          reqs.push_back(mpi::irecv(world, &in[d * kFace], kFace,
                                    neighbour[d], /*tag=*/d ^ 1));
        }
      }
      for (int d = 0; d < 6; ++d) {
        if (has[d]) {
          reqs.push_back(mpi::isend(world, &out[d * kFace], kFace,
                                    neighbour[d], /*tag=*/d));
        }
      }
      mpi::waitall(reqs);
      for (int i = 0; i < 6 * kFace; ++i) out[i] = 0.5 * (out[i] + in[i]);
      ctx.barrier();
    }
  });
  ScaleResult result;
  result.name = "halo3d";
  result.ranks = nranks;
  result.envelopes = 2 * adjacencies * static_cast<std::uint64_t>(iters);
  result.seconds = seconds_since(start);
  result.run = std::move(run);
  return result;
}

// ---------------------------------------------------------------------------
// particle: migration counts, then variable-size payloads, on a ring
// ---------------------------------------------------------------------------

ScaleResult particle(int nranks, int iters) {
  const auto start = Clock::now();
  auto run = rt::run(nranks, MachineModel::zero(), [&](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    const int me = ctx.rank();
    const int np = ctx.nranks();
    const int left = (me - 1 + np) % np;
    const int right = (me + 1) % np;

    std::vector<double> particles(64, me + 0.5);
    for (int it = 0; it < iters; ++it) {
      // Deterministic migration counts in [1, 8] per direction.
      auto migrating = [&](int dir) {
        std::uint32_t h = static_cast<std::uint32_t>(me * 2654435761u) ^
                          static_cast<std::uint32_t>(it * 40503u) ^
                          static_cast<std::uint32_t>(dir * 97u);
        h ^= h >> 16;
        return 1 + static_cast<int>(h % 8u);
      };
      int to_left = migrating(0);
      int to_right = migrating(1);
      const int have = static_cast<int>(particles.size());
      if (to_left + to_right > have) {
        to_left = have / 2;
        to_right = have - to_left;
      }
      int counts[2] = {to_left, to_right};
      int incoming[2] = {0, 0};
      // Tags: 0 = leftbound count, 1 = rightbound count, 2 = leftbound
      // payload, 3 = rightbound payload.
      mpi::Request reqs[4] = {
          mpi::irecv(world, &incoming[0], 1, left, 1),
          mpi::irecv(world, &incoming[1], 1, right, 0),
          mpi::isend(world, &counts[0], 1, left, 0),
          mpi::isend(world, &counts[1], 1, right, 1),
      };
      mpi::waitall(reqs);

      std::vector<double> from_left(incoming[0]);
      std::vector<double> from_right(incoming[1]);
      std::vector<double> leaving_left(particles.end() - to_left - to_right,
                                       particles.end() - to_right);
      std::vector<double> leaving_right(particles.end() - to_right,
                                        particles.end());
      particles.resize(particles.size() - to_left - to_right);
      mpi::Request data[4] = {
          mpi::irecv(world, from_left.data(), from_left.size(), left, 3),
          mpi::irecv(world, from_right.data(), from_right.size(), right, 2),
          mpi::isend(world, leaving_left.data(), leaving_left.size(), left,
                     2),
          mpi::isend(world, leaving_right.data(), leaving_right.size(),
                     right, 3),
      };
      mpi::waitall(data);
      particles.insert(particles.end(), from_left.begin(), from_left.end());
      particles.insert(particles.end(), from_right.begin(),
                       from_right.end());
    }
  });
  ScaleResult result;
  result.name = "particle";
  result.ranks = nranks;
  // Per iteration per rank: two counts out, two payloads out.
  result.envelopes = 4ull * nranks * static_cast<std::uint64_t>(iters);
  result.seconds = seconds_since(start);
  result.run = std::move(run);
  return result;
}

// ---------------------------------------------------------------------------
// shuffle: capped-fan-out all-to-all
// ---------------------------------------------------------------------------

ScaleResult shuffle(int nranks, int records) {
  const int fanout = nranks - 1 < 64 ? nranks - 1 : 64;
  const auto start = Clock::now();
  auto run = rt::run(nranks, MachineModel::zero(), [&](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    const int me = ctx.rank();
    const int np = ctx.nranks();
    const int stride = np / (fanout + 1) > 0 ? np / (fanout + 1) : 1;

    std::vector<double> outbox(static_cast<std::size_t>(fanout) * records,
                               me + 0.25);
    std::vector<double> inbox(outbox.size());
    std::vector<mpi::Request> reqs;
    reqs.reserve(2 * static_cast<std::size_t>(fanout));
    // peer_of(rank, k) = rank + (k+1)*stride + k (mod np) is a bijection of
    // rank for fixed k, so one wildcard receive per tag k is exact.
    for (int k = 0; k < fanout; ++k) {
      reqs.push_back(mpi::irecv(world, &inbox[k * records], records,
                                mpi::kAnySource, /*tag=*/k));
    }
    for (int k = 0; k < fanout; ++k) {
      const int peer = (me + (k + 1) * stride + k) % np;
      reqs.push_back(mpi::isend(world, &outbox[k * records], records, peer,
                                /*tag=*/k));
    }
    mpi::waitall(reqs);
  });
  ScaleResult result;
  result.name = "shuffle";
  result.ranks = nranks;
  result.envelopes = static_cast<std::uint64_t>(nranks) * fanout;
  result.seconds = seconds_since(start);
  result.run = std::move(run);
  return result;
}

// ---------------------------------------------------------------------------
// rpc: request/reply fan-out, one server per 64 clients
// ---------------------------------------------------------------------------

ScaleResult rpc(int nranks, int per_client) {
  const int servers0 = (nranks + 63) / 64;
  const int servers = servers0 < nranks ? servers0 : 1;
  const int clients = nranks - servers;
  const auto start = Clock::now();
  auto run = rt::run(nranks, MachineModel::zero(), [&](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    const int me = ctx.rank();
    if (me < servers) {
      int expected = 0;
      for (int c = 0; c < clients; ++c) {
        for (int i = 0; i < per_client; ++i) {
          if ((c + i) % servers == me) ++expected;
        }
      }
      double request[2];
      for (int handled = 0; handled < expected; ++handled) {
        const auto status =
            mpi::recv(world, request, 2, mpi::kAnySource, /*tag=*/0);
        const double reply = request[0] + request[1];
        mpi::send(world, &reply, 1, status.source, /*tag=*/1);
      }
    } else {
      const int c = me - servers;
      for (int i = 0; i < per_client; ++i) {
        const int target = (c + i) % servers;
        const double request[2] = {static_cast<double>(me),
                                   static_cast<double>(i)};
        mpi::send(world, request, 2, target, /*tag=*/0);
        double reply = 0.0;
        mpi::recv(world, &reply, 1, target, /*tag=*/1);
      }
    }
  });
  ScaleResult result;
  result.name = "rpc";
  result.ranks = nranks;
  result.envelopes =
      2ull * clients * static_cast<std::uint64_t>(per_client);
  result.seconds = seconds_since(start);
  result.run = std::move(run);
  return result;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void write_json(const std::string& path,
                const std::vector<ScaleResult>& results, bool quick) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"scale\",\n  \"kind\": \"wall_clock\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"name\": \"%s\", \"ranks\": %d, \"envelopes\": %llu, "
        "\"seconds\": %.6f, \"envelopes_per_sec\": %.1f, "
        "\"ranks_per_sec\": %.1f, \"pooled\": %s, \"workers\": %llu}%s\n",
        r.name.c_str(), r.ranks,
        static_cast<unsigned long long>(r.envelopes), r.seconds,
        static_cast<double>(r.envelopes) / r.seconds,
        static_cast<double>(r.ranks) / r.seconds,
        r.run.pooled ? "true" : "false",
        static_cast<unsigned long long>(r.run.sched_stats.workers),
        i + 1 < results.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
}

struct Workload {
  const char* name;
  ScaleResult (*run)(int nranks);
};

constexpr Workload kWorkloads[] = {
    {"halo3d", [](int n) { return halo3d(n, /*iters=*/2); }},
    {"particle", [](int n) { return particle(n, /*iters=*/2); }},
    {"shuffle", [](int n) { return shuffle(n, /*records=*/4); }},
    {"rpc", [](int n) { return rpc(n, /*per_client=*/4); }},
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = cid::bench::quick_mode(argc, argv);
  std::string out_path = "BENCH_scale.json";
  std::string only;
  std::vector<int> sizes = quick ? std::vector<int>{1000, 4096}
                                 : std::vector<int>{1000, 4096, 10000};
  for (int i = 1; i < argc - 1; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      out_path = argv[i + 1];
    } else if (arg == "--only") {
      only = argv[i + 1];
    } else if (arg == "--ranks") {
      const int ranks = std::atoi(argv[i + 1]);
      if (ranks < 1) {
        std::fprintf(stderr, "bench_scale: --ranks needs a positive integer\n");
        return 2;
      }
      sizes = {ranks};
    }
  }
  bool known = only.empty();
  for (const auto& workload : kWorkloads) known |= only == workload.name;
  if (!known) {
    std::fprintf(stderr,
                 "bench_scale: unknown workload '%s' (halo3d, particle, "
                 "shuffle, rpc)\n",
                 only.c_str());
    return 2;
  }

  cid::bench::print_header(
      "bench_scale - wall-clock cost of O(10k)-rank simulation",
      "pooled fiber scheduler + sharded barrier + envelope arena at scale");
  std::printf("(HOST wall-clock time - machine-dependent, not virtual)\n\n");

  std::vector<ScaleResult> results;
  for (int n : sizes) {
    for (const auto& workload : kWorkloads) {
      if (only.empty() || only == workload.name) {
        results.push_back(workload.run(n));
      }
    }
  }

  cid::bench::print_row(
      {"workload", "ranks", "envelopes", "seconds", "env/sec", "ranks/sec"},
      12);
  for (const auto& r : results) {
    char secs[32], eps[32], rps[32];
    std::snprintf(secs, sizeof(secs), "%.3f", r.seconds);
    std::snprintf(eps, sizeof(eps), "%.3g",
                  static_cast<double>(r.envelopes) / r.seconds);
    std::snprintf(rps, sizeof(rps), "%.3g",
                  static_cast<double>(r.ranks) / r.seconds);
    cid::bench::print_row({r.name, std::to_string(r.ranks),
                           std::to_string(r.envelopes), secs, eps, rps},
                          12);
  }
  const auto& last = results.back();
  std::printf("\nscheduler: %s, %llu workers, %llu fibers, %llu parks "
              "(last run)\n",
              last.run.pooled ? "pooled" : "thread-per-rank",
              static_cast<unsigned long long>(last.run.sched_stats.workers),
              static_cast<unsigned long long>(last.run.sched_stats.fibers),
              static_cast<unsigned long long>(last.run.sched_stats.parks));
  write_json(out_path, results, quick);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
