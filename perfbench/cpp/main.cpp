// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--source-id <text>]
//
// --trace 0 measures the end-to-end metrics with all tracing off, their
// times scaled to a reference host speed (Outcome::adjust). --trace 1
// runs the workload three times: untraced (2/5 of the time), with the
// benchmark's spans (2/5; every per-layer time) and with the program's obs
// recording on (1/5; every per-layer count, and the obs overhead).
// Every pass checks the program's outputs; the last stdout line is the JSON
// result {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this program and is the command to run.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares (test_perfbench.py keeps the two
// in agreement). Per-layer metrics a workload does not exercise read 0.
const Metric kEndToEnd[] = {
    {"work_per_s", "1/s"},    {"step_ms_p50", "ms"}, {"step_ms_tail", "ms"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"core.comm_parameters.us_per_call", "us"},
    {"core.p2p.us_per_call", "us"},
    {"core.datatype_cache_hit_ratio", "ratio"},
    {"core.msgs_per_step", "count"},
    {"core.bytes_per_step", "bytes"},
    {"core.waitalls_per_step", "count"},
    {"mpi.post.us_per_call", "us"},
    {"mpi.waitall.us_per_call", "us"},
    {"mpi.comm_world.us_per_call", "us"},
    {"mpi.match.messages", "count"},
    {"mpi.pack.wall_ns", "ns"},
    {"shmem.put.messages", "count"},
    {"shmem.put.bytes", "bytes"},
    {"rt.run.spawn_ms", "ms"},
    {"rt.run.join_ms", "ms"},
    {"rt.run.sys_share", "ratio"},
    {"rt.barrier.us_per_call", "us"},
    {"rt.deliver.messages", "count"},
    {"rt.sched.parks_per_step", "count"},
    {"rt.sched.switches_per_step", "count"},
    {"translate.us_per_program", "us"},
    {"analyze.us_per_program", "us"},
    {"explore.us_per_program", "us"},
    {"explore.executions_per_program", "count"},
    {"wllsms.single_atom.Original.ms_per_call", "ms"},
    {"wllsms.single_atom.DirectiveMpi.ms_per_call", "ms"},
    {"wllsms.single_atom.DirectiveShmem.ms_per_call", "ms"},
    {"wllsms.spin_scatter.Original.ms_per_call", "ms"},
    {"wllsms.spin_scatter.OriginalWaitall.ms_per_call", "ms"},
    {"wllsms.spin_scatter.DirectiveMpi.ms_per_call", "ms"},
    {"wllsms.spin_scatter.DirectiveShmem.ms_per_call", "ms"},
    {"wllsms.wl_roundtrip.DirectiveMpi.ms_per_call", "ms"},
    {"wllsms.wl_roundtrip.DirectiveShmem.ms_per_call", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
    {"unattributed_frac", "ratio"},
};

struct Workload {
  const char* name;
  int nranks;       // SPMD ranks holding trace slots (0: host thread only)
  int max_workers;  // pooled-scheduler workers, further capped by nproc
  Outcome (*run)(const Args&, double, Tracer*, bool);
};

// wllsms-paper runs on one worker: with several, its many short rt::run
// calls pay for page faults and wake-ups across workers, whose cost swings
// by 2x from run to run (see README.md). frontend-fuzz's explore pins its
// own single worker.
const Workload kWorkloads[] = {
    {"halo3d-dir", 4096, 4, run_halo3d_dir},
    {"shuffle-any", 4096, 4, run_shuffle_any},
    {"wllsms-paper", 0, 1, run_wllsms_paper},
    {"frontend-fuzz", 0, 1, run_frontend_fuzz},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>] "
               "[--source-id <text>]\n",
               why);
  std::exit(2);
}

/// The measured program must not be steered by the environment: refuse the
/// variables that select a backend, scheduler, tuning profile or trace
/// export, then pin the ones the library reads inside rt::run calls the
/// benchmark cannot pass options to (the wllsms experiment functions).
void pin_environment(int workers) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CID_", 4) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; run through "
                   "perfbench/run.py, which clears CID_* variables\n",
                   *e);
      std::exit(2);
    }
  }
  setenv("CID_BACKEND", "sim", 1);
  setenv("CID_SIM_SCHED", "pool", 1);
  setenv("CID_SIM_WORKERS", std::to_string(workers).c_str(), 1);
}

/// Peak resident memory of this process image. getrusage's ru_maxrss is
/// not used: Linux carries it across exec, so it would report the launching
/// Python interpreter's peak when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Pin a single-worker run to one CPU, the last the process may use. Its
/// main thread waits while one worker thread runs the ranks, and every
/// rt::run starts a new worker (explore makes thousands of rt::run calls a
/// second): on one CPU each hand-off is a local switch instead of a wake-up
/// of another, possibly idle, virtual CPU, whose latency follows the host's
/// load. Returns the CPU, or -1 when pinning failed.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

/// The samples' times scaled to the reference host speed (Outcome::adjust),
/// or as measured.
std::vector<double> sample_times(const Outcome& o, bool adjusted) {
  std::vector<double> ms(o.sample_ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    ms[i] = adjusted ? o.adjust(o.sample_ms[i], o.sample_gauge[i])
                     : o.sample_ms[i];
  }
  return ms;
}

/// Throughput: work per second of each run of consecutive samples that
/// together took at least half a second, median over the pass. A median of
/// windows, unlike work over all time, does not follow the few slow
/// stretches a shared host puts into a run.
double window_rate(const Outcome& o, const std::vector<double>& ms) {
  std::vector<double> rates;
  double work = 0.0, window_ms = 0.0, measured_ms = 0.0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    work += o.sample_work[i];
    window_ms += ms[i];
    measured_ms += o.sample_ms[i];
    if (measured_ms >= 500.0) {
      rates.push_back(work / window_ms * 1e3);
      work = window_ms = measured_ms = 0.0;
    }
  }
  if (rates.empty() && window_ms > 0.0) rates.push_back(work / window_ms * 1e3);
  return median(rates);
}

/// The highest sample with at least ten samples above it, and never below
/// the median (a pass with few samples, like wllsms-paper's rounds).
std::size_t tail_index(std::size_t n) {
  return std::max(n / 2, n > 10 ? n - 11 : std::size_t{0});
}

/// The span pass's self-time table. self% is the share of all sample
/// time; worker% is total time against the pass's wall time times its
/// scheduler workers, which for spans that never park (core.p2p, mpi.post)
/// is their share of the CPU the pass had. Spans that wait overlap across
/// ranks, so their worker% can exceed 100.
void print_table(const Tracer& tracer, double worker_ms) {
  const std::vector<Tracer::Row> rows = tracer.table();
  const double sample_ms = rows[0].total_ms;
  std::printf("# self time of the span pass (%.0f worker-ms)\n", worker_ms);
  std::printf("# %-48s %10s %14s %14s %8s %9s\n", "span", "calls",
              "total_ms", "self_ms", "self%", "worker%");
  for (const Tracer::Row& row : rows) {
    if (row.calls == 0) continue;
    std::printf("# %-48s %10llu %14.3f %14.3f %7.2f%% %8.1f%%\n",
                row.name.c_str(), static_cast<unsigned long long>(row.calls),
                row.total_ms, row.self_ms,
                sample_ms > 0 ? 100.0 * row.self_ms / sample_ms : 0.0,
                100.0 * row.total_ms / worker_ms);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string trace_dir;
  std::string source_id = "unknown";
  bool have_seed = false, have_trace = false;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
      if (!have_seed) usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown --workload");
  if (!have_seed || !have_trace) usage("--seed and --trace are required");
  args.workers = static_cast<int>(
      std::clamp(nproc, 1L, long{workload->max_workers}));
  pin_environment(args.workers);
  const int pinned_cpu = args.workers == 1 ? pin_to_one_cpu() : -1;

  std::printf("# env {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %ld, \"workers\": %d, \"pinned_cpu\": %d, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"source\": \"%s\"}\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, nproc, args.workers, pinned_cpu,
              PERFBENCH_BUILD_TYPE, __VERSION__, source_id.c_str());

  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  auto account = [&](const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    correct = correct && o.setup_ok && o.failed == 0 && o.attempted > 0;
    for (const std::string& note : o.notes) std::printf("# %s\n", note.c_str());
  };

  if (!args.trace) {
    const Outcome measured = workload->run(args, args.seconds, nullptr, false);
    account(measured);
    // Every time metric is scaled to the reference host speed; the same
    // figures as measured follow in a "#" line.
    std::map<std::string, double> raw;
    for (const bool adjusted : {true, false}) {
      std::map<std::string, double>& m = adjusted ? metrics : raw;
      std::vector<double> ms = sample_times(measured, adjusted);
      m["work_per_s"] = window_rate(measured, ms);
      std::sort(ms.begin(), ms.end());
      m["step_ms_p50"] = median(ms);
      m["step_ms_tail"] = ms.empty() ? 0.0 : ms[tail_index(ms.size())];
      std::vector<double> setup = measured.setup_s;
      for (std::size_t i = 0; adjusted && i < setup.size(); ++i) {
        setup[i] = measured.adjust(setup[i], measured.setup_gauge[i]);
      }
      m["setup_s"] = median(setup);
    }
    metrics["peak_rss_mb"] = peak_rss_mb();
    const std::size_t n = measured.sample_ms.size();
    std::printf("# as measured: work_per_s %.6g, step_ms_p50 %.6g, "
                "step_ms_tail %.6g, setup_s %.6g; reference job %.4f ms "
                "(median of %zu timings; scaled to %.1f ms)\n",
                raw["work_per_s"], raw["step_ms_p50"], raw["step_ms_tail"],
                raw["setup_s"], median(measured.gauge_ms),
                measured.gauge_ms.size(),
                kRefJobMs[static_cast<int>(measured.ref_job)]);
    std::printf("# samples %zu; step_ms_tail is p%.2f; failed_frac %.6f; "
                "setups %zu\n",
                n,
                n == 0 ? 0.0
                       : 100.0 * static_cast<double>(tail_index(n) + 1) / n,
                n == 0 ? 0.0 : static_cast<double>(measured.failed) / n,
                measured.setup_s.size());
  } else {
    const Outcome base = workload->run(args, 0.4 * args.seconds, nullptr,
                                       false);
    account(base);
    Tracer tracer(workload->nranks);
    const std::int64_t traced_start = now_ns();
    const Outcome spanned = workload->run(args, 0.4 * args.seconds, &tracer,
                                          false);
    const double worker_ms =
        static_cast<double>(now_ns() - traced_start) * 1e-6 * args.workers;
    account(spanned);
    const Outcome counted = workload->run(args, 0.2 * args.seconds, nullptr,
                                          true);
    account(counted);
    metrics = spanned.layer;
    metrics.insert(counted.layer.begin(), counted.layer.end());
    for (const Tracer::Row& row : tracer.table()) {
      if (row.calls == 0 || row.name == "sample") continue;
      const bool whole_call = row.name.rfind("wllsms.", 0) == 0;
      metrics[row.name + (whole_call ? ".ms_per_call" : ".us_per_call")] =
          row.total_ms * (whole_call ? 1.0 : 1e3) /
          static_cast<double>(row.calls);
    }
    const double base_p50 = median(sample_times(base, true));
    auto overhead = [&](const Outcome& pass) {
      return base_p50 > 0 ? median(sample_times(pass, true)) / base_p50 - 1.0
                          : 0.0;
    };
    metrics["obs.trace_overhead_frac"] = overhead(counted);
    metrics["unattributed_frac"] = tracer.unattributed_frac();
    std::printf("# median sample: untraced %.4f ms, spans %+.4f, obs on "
                "%+.4f (share of untraced)\n",
                base_p50, overhead(spanned), overhead(counted));
    print_table(tracer, worker_ms);
    if (!trace_dir.empty()) {
      const std::string path =
          trace_dir + "/" + workload->name + ".spans.tsv";
      tracer.write_spans(path);
      std::printf("# spans written to %s\n", path.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m) {
    const auto it = metrics.find(m.name);
    const double value = it == metrics.end() ? 0.0 : it->second;
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  };
  if (args.trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
