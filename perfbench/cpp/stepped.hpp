// The closed loop shared by the two 4096-rank workloads: one rt::run per
// repetition, every rank steps in lockstep, and a step ends when its barrier
// completes. Rank 0 times each step between barrier exits and decides, before
// entering barrier k, whether step k is the last; the other ranks read that
// decision after barrier k, so every rank runs the same number of steps.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "net/backend.hpp"
#include "net/transport.hpp"
#include "rt/runtime.hpp"

namespace perfbench {

/// Untimed steps at the start of each repetition: the cold first step and
/// one warm-up step. They count towards set-up time.
inline constexpr int kWarmupSteps = 2;

/// The measured program's pinned run options: explicit sim transport, the
/// pooled scheduler and a fixed worker count, whatever the environment says.
inline cid::rt::RunOptions pinned_options(int workers) {
  cid::rt::RunOptions options;
  options.transport = cid::net::make_transport(cid::net::Backend::Sim);
  options.scheduler = cid::rt::sched::Mode::kPool;
  options.sim_workers = workers;
  return options;
}

class StepLoop {
 public:
  StepLoop(double budget_seconds, Tracer* tracer)
      : budget_ns_(static_cast<std::int64_t>(budget_seconds * 1e9)),
        tracer_(tracer),
        barrier_name_(tracer != nullptr ? tracer->intern("rt.barrier") : 0),
        stop_(kMaxSteps, 0),
        wall_(kMaxSteps, 0),
        virt_(kMaxSteps, 0.0) {}

  /// Every rank calls this at the end of step k; false means k was the last.
  bool end_step(cid::rt::RankCtx& ctx, int k) {
    const int rank = ctx.rank();
    if (rank == 0) {
      const bool timed_enough = k >= kWarmupSteps && now_ns() >= deadline_;
      stop_[k] = timed_enough || k + 1 == kMaxSteps ? 1 : 0;
    }
    {
      Span span(tracer_, rank, barrier_name_);
      ctx.barrier();
    }
    if (rank == 0) {
      wall_[k] = now_ns();
      virt_[k] = ctx.clock().now();
      if (k == kWarmupSteps - 1) deadline_ = wall_[k] + budget_ns_;
      steps_ = k + 1;
    }
    return stop_[k] == 0;
  }

  /// Rank-body entry/exit marks for rt.run.spawn_ms / rt.run.join_ms.
  void body_entered() { raise_to(last_entry_, now_ns()); }
  void body_exited() { raise_to(last_exit_, now_ns()); }

  int steps() const noexcept { return steps_; }
  std::int64_t wall_after(int k) const { return wall_[k]; }
  double virtual_after(int k) const { return virt_[k]; }
  std::int64_t last_entry() const { return last_entry_.load(); }
  std::int64_t last_exit() const { return last_exit_.load(); }

  /// Timed samples of this repetition, each moving `work_per_step`
  /// envelopes, and its set-up time.
  void collect(std::int64_t rep_start, double work_per_step,
               Outcome& out) const {
    out.add_setup(static_cast<double>(wall_[kWarmupSteps - 1] - rep_start) *
                  1e-9);
    for (int k = kWarmupSteps; k < steps_; ++k) {
      out.add_sample(static_cast<double>(wall_[k] - wall_[k - 1]) * 1e-6,
                     work_per_step);
    }
  }

 private:
  static constexpr int kMaxSteps = 1 << 16;

  std::int64_t budget_ns_;
  Tracer* tracer_;
  std::uint32_t barrier_name_;
  std::int64_t deadline_ = 0;
  int steps_ = 0;
  std::vector<std::uint8_t> stop_;
  std::vector<std::int64_t> wall_;
  std::vector<double> virt_;
  std::atomic<std::int64_t> last_entry_{0};
  std::atomic<std::int64_t> last_exit_{0};
};

/// rt numbers of a stepped pass, summed over its repetitions.
struct RunTotals {
  double steps = 0, spawn_ms = 0, join_ms = 0, parks = 0, switches = 0;
  int runs = 0;

  void add(const StepLoop& loop, const cid::rt::RunResult& result,
           std::int64_t start, std::int64_t end) {
    steps += loop.steps();
    spawn_ms += static_cast<double>(loop.last_entry() - start) * 1e-6;
    join_ms += static_cast<double>(end - loop.last_exit()) * 1e-6;
    parks += static_cast<double>(result.sched_stats.parks);
    switches += static_cast<double>(result.sched_stats.switches);
    runs += 1;
  }

  /// A counting pass's per-layer metrics: obs counters and scheduler counts
  /// per step.
  void record_counts(const ObsCounts& counts, Outcome& out) const {
    perfbench::record_counts(counts, steps, out);
    out.layer["rt.sched.parks_per_step"] = parks / steps;
    out.layer["rt.sched.switches_per_step"] = switches / steps;
  }

  /// A traced pass's per-layer times: spawn and join per rt::run call.
  void record_times(Outcome& out) const {
    out.layer["rt.run.spawn_ms"] = spawn_ms / runs;
    out.layer["rt.run.join_ms"] = join_ms / runs;
  }
};

}  // namespace perfbench
