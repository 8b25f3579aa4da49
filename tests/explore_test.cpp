// Tests for cid::explore — the schedule-space model checker behind
// `cidt explore` — and the cross-layer fuzzer behind `cidt fuzz`.
//
// The two flagship cases mirror the committed examples: a wildcard value
// race (examples/explore_race.cpp) and a symbolic-guard ring deadlock
// (examples/explore_deadlock.cpp). In both, `cidt check` must stay clean
// apart from the symbolic-skip note — the defect is only findable by
// exploring schedules — and the witness schedule each diagnostic carries
// must replay the finding deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "explore/explore.hpp"
#include "explore/fuzz.hpp"
#include "explore/program.hpp"
#include "translate/scan.hpp"
#include "translate/translator.hpp"

namespace {

using cid::explore::ExploreResult;
using cid::explore::Options;
using cid::explore::Witness;

// The committed examples, inlined so the tests do not depend on paths.
constexpr const char* kWildcardRace = R"(
int a[8]; int b[8]; int c[8]; int d[8];
int k;
void stage1(); void stage2();
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver(0) sender(k) sendwhen(rank==1) receivewhen(rank==0)
  { stage1(); }
#pragma comm_p2p sbuf(c) rbuf(d) count(4) receiver(0) sender(k) sendwhen(rank==2) receivewhen(rank==0)
  { stage2(); }
}
)";

constexpr const char* kGuardedRing = R"(
int a[8]; int b[8];
int k;
void exchange();
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs) sendwhen(k>0) receivewhen(rank>=0)
  { exchange(); }
}
)";

// Four wildcard receives across two ranks in ONE synchronization scope:
// rank 1 and rank 2 each hold two in-flight wildcard candidates at the
// same quiescence point, which is exactly where DPOR's lowest-rank rule
// prunes and naive enumeration does not.
constexpr const char* kTwoRankWildcards = R"(
int a[8]; int b[8]; int c[8]; int d[8];
int k;
void w0(); void w1(); void w2(); void w3();
void step() {
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver(1) sendwhen(rank==0) sender(k) receivewhen(rank==1)
  { w0(); }
#pragma comm_p2p sbuf(a) rbuf(d) count(4) receiver(2) sendwhen(rank==0) sender(k) receivewhen(rank==2)
  { w1(); }
#pragma comm_p2p sbuf(c) rbuf(b) count(4) receiver(1) sendwhen(rank==2) sender(k) receivewhen(rank==1)
  { w2(); }
#pragma comm_p2p sbuf(c) rbuf(d) count(4) receiver(2) sendwhen(rank==1) sender(k) receivewhen(rank==2)
  { w3(); }
  }
}
)";

constexpr const char* kCleanRing = R"(
int a[8]; int b[8];
void shift();
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)
  { shift(); }
}
)";

ExploreResult explore(const char* source, int nprocs, bool dpor = true) {
  Options options;
  options.nprocs = nprocs;
  options.dpor = dpor;
  auto result = cid::explore::explore_source(source, options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? result.value() : ExploreResult{};
}

bool has(const ExploreResult& result, std::string_view id) {
  for (const auto& d : result.report.diagnostics) {
    if (d.id == id) return true;
  }
  return false;
}

const Witness& witness_of(const ExploreResult& result, std::string_view id) {
  for (const auto& w : result.witnesses) {
    if (w.id == id) return w;
  }
  static const Witness missing;
  EXPECT_TRUE(false) << "no witness for " << id;
  return missing;
}

// --- the two flagship defects the static layer cannot see -------------------

TEST(Explore, FindsWildcardValueRaceWhereCheckIsClean) {
  // Static layer: nothing provable, nothing reported — only the skip count.
  cid::analyze::Options static_opts;
  static_opts.nprocs_min = 3;
  static_opts.nprocs_max = 3;
  const auto report = cid::analyze::analyze_source(kWildcardRace, static_opts);
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.symbolic_skips, 2);

  // Dynamic layer: the two producers race into rank 0's first wildcard
  // receive, and the competing messages come from different directives.
  const auto result = explore(kWildcardRace, 3);
  EXPECT_TRUE(has(result, "CID-E102"));
  EXPECT_GE(result.report.errors(), 1);
  EXPECT_EQ(result.symbolic_clauses, 2);
}

TEST(Explore, FindsSymbolicGuardDeadlockWhereCheckIsClean) {
  cid::analyze::Options static_opts;
  static_opts.nprocs_min = 3;
  static_opts.nprocs_max = 3;
  const auto report = cid::analyze::analyze_source(kGuardedRing, static_opts);
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.symbolic_skips, 1);

  // The all-guards-false branch leaves every rank waiting on its
  // predecessor: a full cycle (E100). Partial-guard branches strand
  // subsets without a cycle (E101).
  const auto result = explore(kGuardedRing, 3);
  EXPECT_TRUE(has(result, "CID-E100"));
  EXPECT_TRUE(has(result, "CID-E101"));
}

// --- witness replay ---------------------------------------------------------

TEST(Explore, WitnessScheduleReplaysTheDeadlockDeterministically) {
  const auto full = explore(kGuardedRing, 3);
  const Witness& witness = witness_of(full, "CID-E100");
  ASSERT_FALSE(witness.schedule.empty());

  Options replay_opts;
  replay_opts.nprocs = 3;
  replay_opts.schedule = witness.schedule;
  replay_opts.max_executions = 1;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto replay = cid::explore::explore_source(kGuardedRing, replay_opts);
    ASSERT_TRUE(replay.is_ok());
    EXPECT_EQ(replay.value().executions, 1);
    EXPECT_TRUE(has(replay.value(), "CID-E100"));
    EXPECT_FALSE(has(replay.value(), "CID-E101"))
        << "single replayed execution reached a different outcome";
  }
}

TEST(Explore, WitnessScheduleReplaysTheRaceDeterministically) {
  const auto full = explore(kWildcardRace, 3);
  const Witness& witness = witness_of(full, "CID-E102");

  Options replay_opts;
  replay_opts.nprocs = 3;
  replay_opts.schedule = witness.schedule;
  replay_opts.max_executions = 1;
  auto replay = cid::explore::explore_source(kWildcardRace, replay_opts);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().executions, 1);
  EXPECT_TRUE(has(replay.value(), "CID-E102"));
}

// --- DPOR reduction ---------------------------------------------------------

TEST(Explore, DporExploresStrictlyFewerExecutionsThanNaive) {
  const auto dpor = explore(kTwoRankWildcards, 3, /*dpor=*/true);
  const auto naive = explore(kTwoRankWildcards, 3, /*dpor=*/false);
  EXPECT_FALSE(dpor.truncated);
  EXPECT_FALSE(naive.truncated);
  EXPECT_LT(dpor.executions, naive.executions)
      << "DPOR must prune the schedule tree";
  EXPECT_GT(dpor.executions, 1);

  // Reduction must not cost findings: same diagnostic IDs both ways.
  auto ids = [](const ExploreResult& r) {
    std::set<std::string> s;
    for (const auto& d : r.report.diagnostics) s.insert(d.id);
    return s;
  };
  EXPECT_EQ(ids(dpor), ids(naive));
  EXPECT_TRUE(has(dpor, "CID-E102"));
  EXPECT_TRUE(has(dpor, "CID-E105"));  // b and d are each reused in flight
}

// --- determinism and clean programs -----------------------------------------

TEST(Explore, IdenticalRunsProduceIdenticalResults) {
  const auto first = explore(kGuardedRing, 3);
  const auto second = explore(kGuardedRing, 3);
  EXPECT_EQ(first.executions, second.executions);
  EXPECT_EQ(first.decisions, second.decisions);
  ASSERT_EQ(first.report.diagnostics.size(), second.report.diagnostics.size());
  for (std::size_t i = 0; i < first.report.diagnostics.size(); ++i) {
    EXPECT_EQ(first.report.diagnostics[i].id, second.report.diagnostics[i].id);
    EXPECT_EQ(first.report.diagnostics[i].message,
              second.report.diagnostics[i].message);
  }
  ASSERT_EQ(first.witnesses.size(), second.witnesses.size());
  for (std::size_t i = 0; i < first.witnesses.size(); ++i) {
    EXPECT_EQ(first.witnesses[i].schedule, second.witnesses[i].schedule);
  }
}

TEST(Explore, FullyExactProgramIsOneCleanExecution) {
  const auto result = explore(kCleanRing, 4);
  EXPECT_EQ(result.executions, 1);  // no choice points at all
  EXPECT_TRUE(result.report.diagnostics.empty());
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.symbolic_clauses, 0);
}

TEST(Explore, RespectsExecutionBudgetAndReportsTruncation) {
  Options options;
  options.nprocs = 4;
  options.max_executions = 3;
  auto result = cid::explore::explore_source(kGuardedRing, options);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().executions, 3);
  EXPECT_TRUE(result.value().truncated);
}

// --- schedule round-trip ----------------------------------------------------

TEST(Explore, ScheduleFormatsAndParsesRoundTrip) {
  const std::vector<int> schedule = {1, 0, 2};
  const std::string text = cid::explore::format_schedule(schedule);
  EXPECT_EQ(text, "1,0,2");
  auto parsed = cid::explore::parse_schedule(text);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value(), schedule);

  EXPECT_EQ(cid::explore::format_schedule({}), "-");
  auto empty = cid::explore::parse_schedule("-");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty.value().empty());

  EXPECT_FALSE(cid::explore::parse_schedule("1,x,2").is_ok());
}

// --- one directive model ------------------------------------------------------

// The three front ends walk the same scanned tree, so they agree on which
// directives exist: pragma text in comments and literals is none, a directive
// nested in a comm_p2p or comm_collective body is an error everywhere, and
// structural errors reject everywhere.
TEST(FrontEnds, AgreeOnWhichDirectivesExist) {
  constexpr const char* kDecls = "int a[4]; int b[4];\nvoid work();\n";
  constexpr const char* kRing =
      "sbuf(a) rbuf(b) count(4) receiver((rank+1)%nprocs) "
      "sender((rank+nprocs-1)%nprocs)";
  const std::string p2p = std::string("#pragma comm_p2p ") + kRing + "\n";
  const std::string body = "{ work(); }\n";
  struct Row {
    const char* name;
    std::string source;
    const char* rejected_as;  // id of the first scan issue; null = accepted
    int sites = 0;    // comm_p2p and comm_collective directives
    int regions = 0;  // comm_parameters directives
  };
  const std::vector<Row> rows = {
      {"pragma in a block comment",
       std::string(kDecls) + "/*\n" + p2p + body + "*/\n", nullptr, 0, 0},
      {"pragma in a raw string",
       std::string(kDecls) + "const char* text = R\"(\n" + p2p + body +
           ")\";\n",
       nullptr, 0, 0},
      {"p2p nested in a p2p body",
       std::string(kDecls) + p2p + "{\n" + p2p + body + "}\n", "CID-P002"},
      {"p2p nested in a collective body",
       std::string(kDecls) +
           "#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) sbuf(a) "
           "rbuf(b) count(4)\n{\n" +
           p2p + body + "}\n",
       "CID-P002"},
      {"region directly wrapping a directive",
       std::string(kDecls) + "#pragma comm_parameters count(4)\n" + p2p + body,
       nullptr, 1, 1},
      {"backslash-continued pragma",
       std::string(kDecls) +
           "#pragma comm_p2p sbuf(a) rbuf(b) count(4) \\\n"
           "    receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)\n" +
           body,
       nullptr, 1, 0},
      {"unbalanced braces", std::string(kDecls) + p2p + "{ if (a[0]) {\n",
       "CID-P002"},
      {"missing sender and receiver",
       std::string(kDecls) + "\n#pragma comm_p2p sbuf(a) rbuf(b) count(4)\n" +
           body,
       "CID-P005"},
      {"sbuf and rbuf counts differ",
       std::string(kDecls) +
           "#pragma comm_p2p sbuf(a, b) rbuf(b) count(4) receiver(1) "
           "sender(0)\n" +
           body,
       "CID-P006"},
      {"bogus target",
       std::string(kDecls) + "#pragma comm_p2p " + kRing +
           " target(TARGET_COMM_BOGUS)\n" + body,
       "CID-S032"},
      {"bogus place_sync",
       std::string(kDecls) + "#pragma comm_parameters place_sync(NOWHERE)\n{\n" +
           p2p + body + "}\n",
       "CID-S032"},
      {"reliability with a SHMEM target",
       std::string(kDecls) +
           "#pragma comm_parameters reliability(100, 3) "
           "target(TARGET_COMM_SHMEM)\n{\n" +
           p2p + body + "}\n",
       "CID-S035"},
      {"comments on the pragma line",
       std::string(kDecls) + "#pragma comm_p2p /* ring */ " + kRing +
           "  // note\n" + body,
       nullptr, 1, 0},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    auto translated = cid::translate::translate_source(row.source);
    cid::analyze::Options analyze_options;
    analyze_options.nprocs_min = 3;
    analyze_options.nprocs_max = 3;
    const auto report = cid::analyze::analyze_source(row.source,
                                                     analyze_options);
    auto program = cid::explore::build_program(row.source);

    const bool accepted = row.rejected_as == nullptr;
    EXPECT_EQ(translated.is_ok(), accepted);
    EXPECT_EQ(report.errors() == 0, accepted) << report.errors();
    EXPECT_EQ(program.is_ok(), accepted);
    if (!accepted) {
      // Rejected for the same reason, at the same place: the first scan
      // issue, which analyze reports under the same id at the same line.
      const auto tree = cid::translate::scan_directives(row.source);
      ASSERT_FALSE(tree.issues.empty());
      const auto& first = tree.issues.front();
      EXPECT_EQ(std::string(first.id), row.rejected_as);
      const auto reported = std::find_if(
          report.diagnostics.begin(), report.diagnostics.end(),
          [&first](const auto& d) {
            return d.id == first.id && d.line == first.line &&
                   d.message == first.status.message();
          });
      EXPECT_NE(reported, report.diagnostics.end());
      if (translated.is_ok() || program.is_ok()) continue;
      EXPECT_EQ(translated.status().message(), program.status().message());
      EXPECT_EQ(translated.status().message(), first.located().message());
      continue;
    }
    if (!translated.is_ok() || !program.is_ok()) continue;
    const auto& summary = translated.value().summary;
    EXPECT_EQ(summary.p2p_directives, row.sites);
    EXPECT_EQ(summary.parameter_regions, row.regions);
    EXPECT_EQ(report.directives_checked, row.sites + row.regions);
    EXPECT_EQ(static_cast<int>(program.value().site_lines.size()), row.sites);
    if (row.sites == 0) {
      EXPECT_EQ(translated.value().source, row.source);
    }
  }
}

// --- the cross-layer fuzzer -------------------------------------------------

TEST(Fuzz, GenerationIsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    EXPECT_EQ(cid::explore::generate_program(seed),
              cid::explore::generate_program(seed));
  }
  EXPECT_NE(cid::explore::generate_program(1),
            cid::explore::generate_program(2));
}

TEST(Fuzz, OneHundredSeedsProduceNoDivergence) {
  cid::explore::FuzzOptions options;
  options.nprocs = 3;
  int deadlocks = 0;
  int symbolic = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto outcome = cid::explore::fuzz_one(seed, options);
    EXPECT_FALSE(outcome.divergence)
        << "seed " << seed << ": " << outcome.detail << "\n"
        << outcome.program;
    if (outcome.explore_deadlock) ++deadlocks;
    if (outcome.analyze_symbolic_skips > 0) ++symbolic;
  }
  // The corpus must actually exercise the interesting territory, not just
  // pass vacuously.
  EXPECT_GT(deadlocks, 10);
  EXPECT_GT(symbolic, 10);
}

}  // namespace
