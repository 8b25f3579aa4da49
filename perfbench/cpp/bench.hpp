// Shared pieces of the perfbench program: run arguments, the in-memory span
// recorder used by traced runs, and the per-run outcome every workload fills.
//
// All times here are HOST wall-clock times from std::chrono::steady_clock.
// Virtual (machine-model) times never enter a metric; the workloads check
// them exactly as part of output correctness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the seed-to-input hash every workload derives its inputs from.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash value.
inline double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// Raise an atomic to `value` if it is lower (last-arrival timestamps).
inline void raise_to(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t seen = slot.load();
  while (seen < value && !slot.compare_exchange_weak(seen, value)) {
  }
}

/// Fold a value into a running digest (of generated inputs or outputs).
inline std::uint64_t digest(std::uint64_t h, std::uint64_t value) {
  return mix(h ^ value);
}
inline std::uint64_t digest(std::uint64_t h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return digest(h, bits);
}

/// The "# inputs" line every workload prints: a digest of what the seed
/// generated, so a test can see that another seed changes the inputs.
inline std::string inputs_note(std::uint64_t h) {
  char text[48];
  std::snprintf(text, sizeof text, "inputs %016llx",
                static_cast<unsigned long long>(h));
  return text;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int workers = 1;  ///< pooled-scheduler worker threads, pinned per run
};

/// Span recorder for traced runs. One slot per SPMD rank plus one for the
/// host thread; each slot is written only by the rank (fiber) that owns it,
/// so recording takes no lock. Spans nest per slot through an open stack.
class Tracer {
 public:
  explicit Tracer(int nranks);

  /// Register a span name (call before ranks start; not thread-safe).
  std::uint32_t intern(const std::string& name);

  int host_slot() const noexcept { return static_cast<int>(slots_.size()) - 1; }

  std::int32_t open(int slot, std::uint32_t name);
  void close(int slot, std::int32_t index);

  struct Row {
    std::string name;
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per-name totals; self time is a span's duration minus the time its
  /// direct children cover.
  std::vector<Row> table() const;

  /// Share of "sample" span time that no layer span below it covers.
  double unattributed_frac() const;

  /// Write the spans of the host slot and of the first kWrittenRanks ranks
  /// as TSV (slot, name, begin_ns, end_ns, parent index); the full set of a
  /// 4096-rank run is hundreds of megabytes.
  static constexpr std::size_t kWrittenRanks = 64;
  void write_spans(const std::string& path) const;

 private:
  struct Rec {
    std::uint32_t name;
    std::int32_t parent;
    std::int64_t begin;
    std::int64_t end;
  };
  struct Slot {
    std::vector<Rec> recs;
    std::vector<std::int32_t> stack;
  };
  std::vector<std::string> names_;
  std::vector<Slot> slots_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, int slot, std::uint32_t name)
      : tracer_(tracer), slot_(slot) {
    if (tracer_ != nullptr) index_ = tracer_->open(slot, name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(slot_, index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int slot_;
  std::int32_t index_ = -1;
};

/// The reference jobs a workload's times are scaled by. A job calls nothing
/// in the program, so its time moves only with the speed the host gives
/// this process, which on a shared host drifts by 10-30 % over minutes and
/// up to 2x over an hour. Each workload uses the job closest to where its
/// own host time goes.
enum class RefJob {
  kCompute,  ///< sort and hash table in freshly mapped memory: user CPU
             ///< with page faults, as for ranks on fiber stacks mapped anew
             ///< by every rt::run
  kThreads,  ///< start and join 32 threads: clone, futex and scheduler
             ///< work, as for explore's thread per rt::run
};

/// Host wall time of one reference job, median of twenty runs, in
/// milliseconds; 0 if it could not run. The median, not the best time: the
/// host interferes in bursts shorter than a run of the job, and the program
/// meets them at their typical rate. With `threads` > 1 the job runs on that
/// many threads at once, the calling thread among them, and the mean of
/// their medians is returned: a workload on several workers slows with the
/// host's least loaded CPUs and its most loaded ones alike.
double ref_job_ms(RefJob job, int threads);

/// Each job's typical time on one thread of the 4-vCPU Xeon host where the
/// bounds were set: the reported times are scaled to these.
inline constexpr double kRefJobMs[] = {6.0, 0.5};

/// What one measured pass of a workload produced. Every time is host wall
/// time as measured; each sample and set-up also records how many reference
/// job timings preceded it, so that it can be scaled by the ones taken just
/// before and after it (see adjust()).
struct Outcome {
  std::vector<double> sample_ms;          ///< host wall time per sample
  std::vector<double> sample_work;        ///< envelopes or programs
  std::vector<std::size_t> sample_gauge;  ///< gauge_ms.size() when taken
  std::vector<double> setup_s;            ///< one per repetition
  std::vector<std::size_t> setup_gauge;   ///< gauge_ms.size() when taken
  RefJob ref_job = RefJob::kCompute;
  int ref_threads = 1;                    ///< the workload's workers
  std::vector<double> gauge_ms;  ///< reference job timings, in order
  std::uint64_t attempted = 0;     ///< timed samples
  std::uint64_t failed = 0;        ///< timed samples failing a check
  bool setup_ok = true;            ///< every untimed (set-up) check passed
  std::vector<std::string> notes;  ///< human-readable lines for stdout
  /// Per-layer metrics measured by this pass (traced passes only).
  std::map<std::string, double> layer;

  /// Time the reference job now. Workloads call it between timed work:
  /// around each repetition, and at least every kGaugeEveryNs within one.
  void gauge() {
    gauge_ms.push_back(ref_job_ms(ref_job, ref_threads));
    last_gauge_ns = now_ns();
  }
  bool gauge_due() const { return now_ns() - last_gauge_ns >= kGaugeEveryNs; }
  void add_sample(double ms, double work) {
    sample_ms.push_back(ms);
    sample_work.push_back(work);
    sample_gauge.push_back(gauge_ms.size());
  }
  void add_setup(double s) {
    setup_s.push_back(s);
    setup_gauge.push_back(gauge_ms.size());
  }

  /// A time measured after `gauged` reference timings, scaled to the
  /// reference host speed: times kRefJobMs over the mean of the timings
  /// just before and just after it (the one there is, if only one).
  double adjust(double t, std::size_t gauged) const;

  static constexpr std::int64_t kGaugeEveryNs = 500'000'000;
  std::int64_t last_gauge_ns = 0;
};

/// Per-workload entry points. A non-null tracer records spans around every
/// call into the program and fills the per-layer times; `counts` switches the
/// program's obs recording on and fills the per-layer counts. A traced run
/// never does both in one pass: obs recording costs the program far more
/// than the spans do, and it would inflate every span it sits in.
Outcome run_halo3d_dir(const Args& args, double seconds, Tracer* tracer,
                       bool counts);
Outcome run_shuffle_any(const Args& args, double seconds, Tracer* tracer,
                        bool counts);
Outcome run_wllsms_paper(const Args& args, double seconds, Tracer* tracer,
                         bool counts);
Outcome run_frontend_fuzz(const Args& args, double seconds, Tracer* tracer,
                          bool counts);

/// The program's own obs counters that a traced pass reads, summed over all
/// sites and ranks.
struct ObsCounts {
  double match_messages = 0;   ///< mpi.match.messages
  double deliver_messages = 0; ///< rt.deliver.messages
  double put_messages = 0;     ///< shmem.put.messages
  double put_bytes = 0;        ///< shmem.put.bytes
  double pack_ns = 0;          ///< mpi.pack.wall_ns, summed

  ObsCounts& operator+=(const ObsCounts& o) {
    match_messages += o.match_messages;
    deliver_messages += o.deliver_messages;
    put_messages += o.put_messages;
    put_bytes += o.put_bytes;
    pack_ns += o.pack_ns;
    return *this;
  }
};

/// Switch the program's obs recording on (counting passes) or off.
void obs_start(bool on);
/// Read the counters recorded since obs_start, then clear and switch off.
ObsCounts obs_finish();

/// Record the obs-derived per-layer metrics, each divided by the number of
/// samples it covers.
void record_counts(const ObsCounts& counts, double samples, Outcome& out);

/// The directive layer's rank-local counters (core::comm_stats()), summed
/// over ranks as each rank leaves its SPMD region.
struct CoreTotals {
  std::atomic<std::uint64_t> msgs{0}, bytes{0}, waitalls{0}, created{0},
      hits{0};

  void add_mine();  // call on a rank, inside the SPMD region
  void record(double samples, Outcome& out) const;
};

double median(std::vector<double> values);

}  // namespace perfbench
