// The directive program model executed by the schedule-space explorer.
//
// cid::explore does not interpret arbitrary C++ — it interprets the
// *communication intent*: the directive tree of translate::scan_directives,
// the same tree the translator lowers and the analyzer checks (clause
// inheritance resolved there, once), flattened into the sequence of
// synchronization scopes the translator would generate (post every transfer
// of the scope, one consolidated completion at its end). Everything the static analyzer
// must skip as symbolic — guards, peers and roots referencing variables
// other than rank/nprocs — becomes an explicit nondeterministic decision
// point for the explorer instead.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/expr.hpp"

namespace cid::explore {

/// One clause expression as the interpreter sees it. `symbolic` marks
/// expressions with free variables beyond rank/nprocs: the explorer branches
/// over their outcomes instead of evaluating them.
struct ClauseExpr {
  bool present = false;
  bool symbolic = false;
  core::Expr expr;   ///< valid iff present and the text parsed
  std::string text;  ///< verbatim clause argument (for reports)
};

enum class CollectiveKind { Bcast, Gather, AllToAll };

/// One transfer of the program: a comm_p2p (on rank r: send to receiver(r)
/// under sendwhen(r), receive from sender(r) under receivewhen(r)) or a
/// comm_collective. `site` is the directive's index in textual order — it is
/// stamped into every payload the directive sends, which is how the explorer
/// attributes a delivered message back to its source line.
struct Op {
  bool collective = false;
  int site = 0;
  int line = 0;
  // point-to-point
  ClauseExpr sender, receiver, sendwhen, receivewhen;
  std::string sbuf, rbuf;
  // collective
  CollectiveKind kind = CollectiveKind::Bcast;
  ClauseExpr root;
};

/// Ops posted together and completed by one consolidated sync — a
/// comm_parameters region (or the slice of one between nested regions), or
/// a standalone directive.
struct SyncScope {
  std::vector<Op> ops;
  int line = 0;
};

struct Program {
  std::vector<SyncScope> scopes;
  std::vector<int> site_lines;     ///< site index -> 1-based source line
  std::vector<std::string> notes;  ///< model simplifications applied
  int symbolic_clauses = 0;        ///< ops carrying >= 1 symbolic clause
};

/// Build the program from annotated source. Fails, like the translator, on
/// the first scan issue ("line N: <message>"), which covers the static
/// clause rules; a directive whose clause expression does not parse is
/// skipped with a note — the static analyzer reports it as CID-P003.
Result<Program> build_program(std::string_view source);

}  // namespace cid::explore
