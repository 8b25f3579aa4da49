// frontend-fuzz: pragma programs generated from the seed by
// explore::generate_program, each run through translate::translate_source,
// analyze::analyze_source and explore::explore_source at nprocs 3 — the only
// workload that loads the three front-end layers. Each program is checked
// with the cidt fuzz cross-layer rules: no divergence, and translate accepts
// every program analyze accepts.
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "bench.hpp"
#include "explore/explore.hpp"
#include "explore/fuzz.hpp"
#include "translate/translator.hpp"

namespace perfbench {
namespace {

constexpr int kNprocs = 3;
constexpr int kReps = 5;
constexpr int kChunk = 1024;   // programs generated ahead of timing
constexpr int kWarmup = 512;   // untimed programs per repetition

/// Front-end layer spans, in call order.
const char* const kLayers[3] = {"translate", "analyze", "explore"};

/// Run one program through the three layers, adding explore's executions to
/// `executions`; false when the layers diverge (the cidt fuzz rules A, B, C).
/// explore::fuzz_one applies the same rules but calls the layers itself, so
/// they could not be timed one by one.
bool check_program(const std::string& program, Tracer* tracer,
                   const std::uint32_t names[3], double& executions) {
  const int slot = tracer != nullptr ? tracer->host_slot() : 0;
  const bool translate_ok = [&] {
    Span span(tracer, slot, names[0]);
    return cid::translate::translate_source(program, {}).is_ok();
  }();
  cid::analyze::Options analyze_options;
  analyze_options.nprocs_min = kNprocs;
  analyze_options.nprocs_max = kNprocs;
  const cid::analyze::Report report = [&] {
    Span span(tracer, slot, names[1]);
    return cid::analyze::analyze_source(program, analyze_options);
  }();
  cid::explore::Options explore_options;
  explore_options.nprocs = kNprocs;
  explore_options.max_executions = 128;
  explore_options.max_decisions = 64;
  const auto explored = [&] {
    Span span(tracer, slot, names[2]);
    return cid::explore::explore_source(program, explore_options);
  }();

  const int analyze_errors = report.errors();
  if (!explored.is_ok()) return analyze_errors != 0;
  const cid::explore::ExploreResult& result = explored.value();
  executions += result.executions;
  bool m010 = false, m011 = false, m012 = false, m015 = false;
  for (const auto& d : report.diagnostics) {
    m010 = m010 || d.id == "CID-M010";
    m011 = m011 || d.id == "CID-M011";
    m012 = m012 || d.id == "CID-M012";
    m015 = m015 || d.id == "CID-M015";
  }
  bool deadlock = false, value_race = false;
  for (const auto& d : result.report.diagnostics) {
    deadlock = deadlock || d.id == "CID-E100" || d.id == "CID-E101";
    value_race = value_race || d.id == "CID-E102";
  }
  if (!translate_ok && analyze_errors == 0) return false;  // rule C
  if (report.clean() && report.symbolic_skips == 0 &&
      (deadlock || value_race)) {
    return false;  // rule A
  }
  if (m012 && !m010 && !m011 && !m015 && report.symbolic_skips == 0 &&
      !deadlock && !result.truncated) {
    return false;  // rule B
  }
  return true;
}

}  // namespace

Outcome run_frontend_fuzz(const Args& args, double seconds, Tracer* tracer,
                          bool counts) {
  Outcome out;
  // A third of this workload's CPU is system time, mostly explore starting
  // a thread for every rt::run; its times follow the thread job best.
  out.ref_job = RefJob::kThreads;
  std::uint32_t names[3] = {0, 0, 0};
  if (tracer != nullptr) {
    for (int i = 0; i < 3; ++i) names[i] = tracer->intern(kLayers[i]);
  }
  // Program seeds of this run: a block of 2^32 derived from the workload
  // seed, consumed in order.
  std::uint64_t next = mix(args.seed) << 32;
  auto generate = [&](std::vector<std::string>& corpus) {
    corpus.clear();
    for (int i = 0; i < kChunk; ++i) {
      corpus.push_back(cid::explore::generate_program(next++));
    }
  };
  double executions = 0;
  obs_start(counts);
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t start = now_ns();
    std::vector<std::string> corpus;
    generate(corpus);
    // Warm up on one fixed set of programs (the first kWarmup cidt fuzz
    // seeds), so that set-up time does not depend on what the seed drew.
    double warm_executions = 0;
    for (int i = 0; i < kWarmup; ++i) {
      out.setup_ok = check_program(cid::explore::generate_program(i), nullptr,
                                   names, warm_executions) &&
                     out.setup_ok;
    }
    if (rep == 0) {
      std::uint64_t h = 0;
      for (const std::string& program : corpus) {
        for (char c : program) h = digest(h, static_cast<std::uint64_t>(c));
      }
      out.notes.push_back(inputs_note(h));
      out.notes.push_back("warmup_explore_executions " +
                          std::to_string(static_cast<long long>(warm_executions)));
    }
    out.add_setup(static_cast<double>(now_ns() - start) * 1e-9);
    out.gauge();

    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds / kReps * 1e9);
    std::size_t i = 0;
    do {
      if (i == corpus.size()) {
        generate(corpus);
        i = 0;
      }
      const std::int64_t t0 = now_ns();
      bool ok = false;
      {
        Span sample(tracer, tracer != nullptr ? tracer->host_slot() : 0, 0);
        ok = check_program(corpus[i++], tracer, names, executions);
      }
      out.add_sample(static_cast<double>(now_ns() - t0) * 1e-6, 1.0);
      out.attempted += 1;
      out.failed += ok ? 0 : 1;
      if (out.gauge_due()) out.gauge();
    } while (now_ns() < deadline);
    out.gauge();
  }
  const ObsCounts obs = obs_finish();
  const double programs = static_cast<double>(out.attempted);
  if (counts) {
    // The obs counters also saw the untimed warm-up programs.
    record_counts(obs, programs + kReps * kWarmup, out);
    out.layer["explore.executions_per_program"] = executions / programs;
  }
  if (tracer != nullptr) {
    const std::vector<Tracer::Row> rows = tracer->table();
    for (int i = 0; i < 3; ++i) {
      out.layer[std::string(kLayers[i]) + ".us_per_program"] =
          rows[names[i]].total_ms * 1e3 / programs;
    }
  }
  return out;
}

}  // namespace perfbench
