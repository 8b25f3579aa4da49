// wllsms-paper: the paper's experiment at its largest size, nprocs 337
// (1 WL rank + 16 LSMS instances x 21 ranks). A round runs the Fig. 3
// single-atom distribution and the Fig. 4 spin scatter for every variant,
// then the WL round trip on both targets. The work is many short rt::run
// calls at small P, so it loads rt::run spawn/teardown, mpi pack, shmem put
// and collectives. Virtual makespans, the Fig. 4 ratios and the WL energy
// are checked exactly every round.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "stepped.hpp"
#include "wllsms/driver.hpp"

namespace perfbench {
namespace {

using cid::wllsms::Variant;

constexpr int kNprocs = 337;
constexpr int kReps = 3;
// Main-loop steps of the Fig. 4 scatter (the fig4 bench's full sweep) and of
// the round trip (the demo's), which give the pinned ratios and energy.
constexpr int kScatterSteps = 24;
constexpr int kRoundtripSteps = 4;

struct Call {
  const char* phase;
  Variant variant;
  const char* label;         // metric-name form of the variant
  cid::core::Target target;  // wl_roundtrip only
};

const Call kRound[] = {
    {"single_atom", Variant::Original, "Original",
     cid::core::Target::Auto},
    {"single_atom", Variant::DirectiveMpi, "DirectiveMpi",
     cid::core::Target::Auto},
    {"single_atom", Variant::DirectiveShmem, "DirectiveShmem",
     cid::core::Target::Auto},
    {"spin_scatter", Variant::Original, "Original",
     cid::core::Target::Auto},
    {"spin_scatter", Variant::OriginalWaitall, "OriginalWaitall",
     cid::core::Target::Auto},
    {"spin_scatter", Variant::DirectiveMpi, "DirectiveMpi",
     cid::core::Target::Auto},
    {"spin_scatter", Variant::DirectiveShmem, "DirectiveShmem",
     cid::core::Target::Auto},
    {"wl_roundtrip", Variant::DirectiveMpi, "DirectiveMpi",
     cid::core::Target::Mpi2Side},
    {"wl_roundtrip", Variant::DirectiveShmem, "DirectiveShmem",
     cid::core::Target::Shmem},
};
constexpr int kCalls = sizeof(kRound) / sizeof(kRound[0]);

/// Virtual makespan of each call in kRound, pinned (seconds). The ratios
/// Original / Directive of the spin scatter are the paper's Fig. 4 speedups
/// at 337 procs: 4.24x (MPI) and 28.54x (SHMEM).
constexpr double kMakespan[kCalls] = {
    0.00032232586666666718, 0.00039455019999999987, 0.00012851119999999998,
    0.0022866432000000041,  0.00087544319999999427, 0.00053944319999999998,
    8.0121600000000761e-05, 0.00087523639999999997, 0.00081955600000000188};
/// Payload envelopes one round delivers: rt deliveries plus shmem puts. The
/// traced pass checks it against the program's own obs counters.
constexpr double kEnvelopesPerRound = 33040;
/// Final WL-side energy of the round trip, as the demo prints it.
constexpr const char* kWlEnergy = "892.963114";

std::string span_name(const Call& call) {
  return std::string("wllsms.") + call.phase + "." + call.label;
}

/// Process resource use: what the calls cost the host besides wall time.
struct Usage {
  double user_s = 0, sys_s = 0;
  double minor_faults = 0, voluntary_switches = 0;

  static Usage now() {
    rusage r{};
    getrusage(RUSAGE_SELF, &r);
    Usage u;
    u.user_s = static_cast<double>(r.ru_utime.tv_sec) + 1e-6 * r.ru_utime.tv_usec;
    u.sys_s = static_cast<double>(r.ru_stime.tv_sec) + 1e-6 * r.ru_stime.tv_usec;
    u.minor_faults = static_cast<double>(r.ru_minflt);
    u.voluntary_switches = static_cast<double>(r.ru_nvcsw);
    return u;
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    minor_faults += o.minor_faults;
    voluntary_switches += o.voluntary_switches;
    return *this;
  }
  Usage operator-(const Usage& o) const {
    Usage d = *this;
    d.user_s -= o.user_s;
    d.sys_s -= o.sys_s;
    d.minor_faults -= o.minor_faults;
    d.voluntary_switches -= o.voluntary_switches;
    return d;
  }
};

struct RoundResult {
  double makespan[kCalls] = {};
  Usage usage[kCalls];  // host resources of each call
  std::string energy[2];
};

struct Configs {
  cid::wllsms::ExperimentConfig scatter;    // Fig. 3 and Fig. 4 phases
  cid::wllsms::ExperimentConfig roundtrip;  // the WL round trip
};

Configs make_configs(std::uint64_t seed,
                     const std::function<void(cid::rt::RankCtx&)>& epilogue) {
  Configs c;
  c.scatter.nprocs = kNprocs;
  c.scatter.num_lsms = 16;
  c.scatter.natoms = 16;
  c.scatter.seed = seed;
  c.scatter.per_rank_epilogue = epilogue;
  c.roundtrip = c.scatter;
  c.scatter.wl_steps = kScatterSteps;
  c.roundtrip.wl_steps = kRoundtripSteps;
  return c;
}

RoundResult run_round(const Configs& configs, Tracer* tracer,
                      const std::vector<std::uint32_t>& names) {
  RoundResult r;
  int energy_index = 0;
  for (int i = 0; i < kCalls; ++i) {
    const Call& call = kRound[i];
    const int slot = tracer != nullptr ? tracer->host_slot() : 0;
    Span span(tracer, slot, tracer != nullptr ? names[i] : 0);
    const Usage before = Usage::now();
    const std::string phase = call.phase;
    if (phase == "single_atom") {
      r.makespan[i] = cid::wllsms::run_single_atom_distribution(
          configs.scatter, call.variant);
    } else if (phase == "spin_scatter") {
      r.makespan[i] =
          cid::wllsms::run_spin_scatter(configs.scatter, call.variant);
    } else {
      double energy = 0.0;
      r.makespan[i] = cid::wllsms::run_wl_roundtrip(configs.roundtrip,
                                                    call.target, &energy);
      char text[32];
      std::snprintf(text, sizeof text, "%.6f", energy);
      r.energy[energy_index++] = text;
    }
    r.usage[i] = Usage::now() - before;
  }
  return r;
}

bool round_ok(const RoundResult& r) {
  for (int i = 0; i < kCalls; ++i) {
    if (r.makespan[i] != kMakespan[i]) return false;
  }
  return r.energy[0] == kWlEnergy && r.energy[1] == kWlEnergy;
}

}  // namespace

Outcome run_wllsms_paper(const Args& args, double seconds, Tracer* tracer,
                         bool counts) {
  Outcome out;
  std::vector<std::uint32_t> names;
  if (tracer != nullptr) {
    for (const Call& call : kRound) names.push_back(tracer->intern(span_name(call)));
  }
  // The counting pass reads each call's rank-local core counters on the way
  // out of the SPMD region; set-up rounds run without the hook.
  CoreTotals core;
  const Configs setup = make_configs(args.seed, nullptr);
  // The library derives the spin configurations from this seed.
  out.notes.push_back(inputs_note(setup.scatter.seed));
  std::function<void(cid::rt::RankCtx&)> harvest;
  if (counts) {
    harvest = [&](cid::rt::RankCtx&) { core.add_mine(); };
  }
  const Configs timed = make_configs(args.seed, harvest);

  double rounds = 0;
  double probe_spawn_ms = 0, probe_join_ms = 0, probe_sys_s = 0;
  Usage timed_usage, call_usage[kCalls];
  int probes = 0;
  ObsCounts obs;
  for (int rep = 0; rep < kReps; ++rep) {
    // Set-up: the cold first round, which also warms the allocators.
    const std::int64_t start = now_ns();
    const RoundResult cold = run_round(setup, nullptr, names);
    out.setup_ok = out.setup_ok && round_ok(cold);
    if (rep == 0) {
      char line[96];
      for (int i = 0; i < kCalls; ++i) {
        std::snprintf(line, sizeof line, "virtual_s %s %.17g",
                      span_name(kRound[i]).c_str(), cold.makespan[i]);
        out.notes.push_back(line);
      }
      std::snprintf(line, sizeof line,
                    "virtual_speedup_dir_mpi %.4f virtual_speedup_dir_shmem "
                    "%.4f",
                    cold.makespan[3] / cold.makespan[5],
                    cold.makespan[3] / cold.makespan[6]);
      out.notes.push_back(line);
      out.notes.push_back("wl_energy " + cold.energy[0] + " " +
                          cold.energy[1]);
    }
    out.add_setup(static_cast<double>(now_ns() - start) * 1e-9);
    out.gauge();

    obs_start(counts);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds / kReps * 1e9);
    do {
      const Usage before = Usage::now();
      const std::int64_t t0 = now_ns();
      RoundResult r;
      {
        Span sample(tracer, tracer != nullptr ? tracer->host_slot() : 0, 0);
        r = run_round(timed, tracer, names);
      }
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
      timed_usage += Usage::now() - before;
      out.add_sample(ms, kEnvelopesPerRound);
      out.gauge();  // after every round: a round takes about a second
      out.attempted += 1;
      out.failed += round_ok(r) ? 0 : 1;
      for (int i = 0; i < kCalls; ++i) call_usage[i] += r.usage[i];
      rounds += 1;
      if (tracer != nullptr) {
        // Bare rt::run at the same size and options: what spawn and
        // teardown alone cost, and how much system time they take.
        std::atomic<std::int64_t> last_entry{0}, last_exit{0};
        const Usage before_probe = Usage::now();
        const std::int64_t p0 = now_ns();
        cid::rt::run(
            kNprocs, setup.scatter.model,
            [&](cid::rt::RankCtx& ctx) {
              raise_to(last_entry, now_ns());
              ctx.barrier();
              raise_to(last_exit, now_ns());
            },
            pinned_options(args.workers));
        const std::int64_t p1 = now_ns();
        probe_sys_s += (Usage::now() - before_probe).sys_s;
        probe_spawn_ms += static_cast<double>(last_entry.load() - p0) * 1e-6;
        probe_join_ms += static_cast<double>(p1 - last_exit.load()) * 1e-6;
        probes += 1;
      }
    } while (now_ns() < deadline);
    obs += obs_finish();
  }

  char line[160];
  std::snprintf(line, sizeof line,
                "timed rounds: %.3f s user, %.3f s system CPU; %.0f payload "
                "envelopes per round",
                timed_usage.user_s, timed_usage.sys_s, kEnvelopesPerRound);
  out.notes.push_back(line);
  out.notes.push_back(
      "per call (mean):                                    user_ms    sys_ms"
      "  minflt  vol_csw");
  for (int i = 0; i < kCalls; ++i) {
    const Usage& u = call_usage[i];
    std::snprintf(line, sizeof line, "%-48s %9.2f %9.2f %7.0f %8.0f",
                  span_name(kRound[i]).c_str(), u.user_s * 1e3 / rounds,
                  u.sys_s * 1e3 / rounds, u.minor_faults / rounds,
                  u.voluntary_switches / rounds);
    out.notes.push_back(line);
  }
  if (counts) {
    const double envelopes = obs.deliver_messages + obs.put_messages;
    out.setup_ok = out.setup_ok && envelopes == kEnvelopesPerRound * rounds;
    record_counts(obs, rounds, out);
    core.record(rounds, out);
  }
  if (tracer != nullptr) {
    out.layer["rt.run.spawn_ms"] = probe_spawn_ms / probes;
    out.layer["rt.run.join_ms"] = probe_join_ms / probes;
    // System CPU of the bare rt::run probes, scaled to the kCalls rt::run
    // calls of a round, as a share of the rounds' own system CPU.
    out.layer["rt.run.sys_share"] =
        timed_usage.sys_s > 0
            ? probe_sys_s / probes * kCalls * rounds / timed_usage.sys_s
            : 0.0;
  }
  return out;
}

}  // namespace perfbench
