// shuffle-any: MPI-level all-to-all with fan-out capped at 16 peers, every
// receive posted with mpi::kAnySource, on 4096 ranks under the zero-cost
// model. Bypasses core and datatypes; loads the rt mailbox wildcard residual
// and mpi::Engine::progress. Every received record must carry the sender and
// step it was sent with.
#include <atomic>
#include <vector>

#include "mpi/mpi.hpp"
#include "stepped.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4096;
constexpr int kFanout = 16;
constexpr int kRecord = 4;  // doubles: sender, step, slot, payload
constexpr int kReps = 6;

/// Slot k of rank r goes to (r + offset + (k+1)*stride + k) mod P, a
/// bijection of r for fixed k, so exactly one message carries tag k to each
/// rank and one wildcard receive per tag is exact.
int peer_of(int rank, int k, int offset) {
  const int stride = kRanks / (kFanout + 1);
  return (rank + offset + (k + 1) * stride + k) % kRanks;
}

int sender_of(int rank, int k, int offset) {
  const int stride = kRanks / (kFanout + 1);
  const int back = (offset + (k + 1) * stride + k) % kRanks;
  return (rank - back + kRanks) % kRanks;
}

double payload(std::uint64_t seed, int sender, int step, int k) {
  return unit(mix(seed ^ mix((static_cast<std::uint64_t>(sender) << 32) ^
                             (static_cast<std::uint64_t>(step) << 8) ^
                             static_cast<std::uint64_t>(k))));
}

}  // namespace

Outcome run_shuffle_any(const Args& args, double seconds, Tracer* tracer,
                        bool counts) {
  Outcome out;
  const std::uint32_t t_world =
      tracer != nullptr ? tracer->intern("mpi.comm_world") : 0;
  const std::uint32_t t_post =
      tracer != nullptr ? tracer->intern("mpi.post") : 0;
  const std::uint32_t t_waitall =
      tracer != nullptr ? tracer->intern("mpi.waitall") : 0;
  const int offset = static_cast<int>(mix(args.seed) % kRanks);
  const auto model = cid::simnet::MachineModel::zero();
  RunTotals totals;
  out.notes.push_back(inputs_note(
      digest(static_cast<std::uint64_t>(offset), payload(args.seed, 0, 0, 0))));
  obs_start(counts);

  // The reference job runs on as many threads as there are workers, before
  // each repetition and after the last; inside one, all ranks step in
  // lockstep and it would stall them.
  out.ref_threads = args.workers;
  out.gauge();
  for (int rep = 0; rep < kReps; ++rep) {
    StepLoop loop(seconds / kReps, tracer);
    // Steps with at least one bad record; set by any rank, read after the run.
    std::vector<std::atomic<std::uint8_t>> bad(1 << 16);
    const std::int64_t start = now_ns();
    const auto result = cid::rt::run(
        kRanks, model,
        [&](cid::rt::RankCtx& ctx) {
          loop.body_entered();
          const int me = ctx.rank();
          cid::mpi::Comm world = [&] {
            Span span(tracer, me, t_world);
            return cid::mpi::Comm::world();
          }();
          std::vector<double> outbox(kFanout * kRecord);
          std::vector<double> inbox(kFanout * kRecord);
          std::vector<cid::mpi::Request> reqs;
          reqs.reserve(2 * kFanout);
          for (int step = 0;; ++step) {
            Span sample(tracer, me, 0);
            for (int k = 0; k < kFanout; ++k) {
              double* rec = &outbox[k * kRecord];
              rec[0] = me;
              rec[1] = step;
              rec[2] = k;
              rec[3] = payload(args.seed, me, step, k);
            }
            reqs.clear();
            for (int k = 0; k < kFanout; ++k) {
              Span span(tracer, me, t_post);
              reqs.push_back(cid::mpi::irecv(world, &inbox[k * kRecord],
                                             kRecord, cid::mpi::kAnySource,
                                             /*tag=*/k));
            }
            for (int k = 0; k < kFanout; ++k) {
              Span span(tracer, me, t_post);
              reqs.push_back(cid::mpi::isend(world, &outbox[k * kRecord],
                                             kRecord,
                                             peer_of(me, k, offset),
                                             /*tag=*/k));
            }
            {
              Span span(tracer, me, t_waitall);
              cid::mpi::waitall(reqs);
            }
            for (int k = 0; k < kFanout; ++k) {
              const double* rec = &inbox[k * kRecord];
              const int from = sender_of(me, k, offset);
              if (rec[0] != from || rec[1] != step || rec[2] != k ||
                  rec[3] != payload(args.seed, from, step, k)) {
                bad[step] = 1;
              }
            }
            if (!loop.end_step(ctx, step)) break;
          }
          loop.body_exited();
        },
        pinned_options(args.workers));
    const std::int64_t end = now_ns();
    loop.collect(start, static_cast<double>(kRanks) * kFanout, out);
    out.gauge();
    totals.add(loop, result, start, end);
    const int steps = loop.steps();
    for (int k = 0; k < steps; ++k) {
      if (k >= kWarmupSteps) {
        out.attempted += 1;
        out.failed += bad[k] != 0 ? 1 : 0;
      } else if (bad[k] != 0) {
        out.setup_ok = false;
      }
    }
  }

  const ObsCounts obs = obs_finish();
  if (counts) {
    out.setup_ok = out.setup_ok && obs.deliver_messages ==
                                       double{kRanks} * kFanout * totals.steps;
    totals.record_counts(obs, out);
  }
  if (tracer != nullptr) totals.record_times(out);
  return out;
}

}  // namespace perfbench
