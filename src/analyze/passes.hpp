// Internal plumbing shared by the analyzer passes. Not installed; include
// only from within src/analyze.
#pragma once

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/diagnostics.hpp"
#include "analyze/source_model.hpp"
#include "translate/scan.hpp"

namespace cid::analyze::detail {

struct AnalysisContext {
  std::string_view source;
  const std::vector<unsigned char>& mask;  ///< the scanned tree's code mask
  const SourceModel& model;
  const Options& options;
  Report& report;
};

/// A receive posted by an earlier comm_p2p whose consolidated sync has not
/// landed yet.
struct InFlight {
  std::string text;  ///< rbuf clause argument, whitespace-normalized
  std::string base;  ///< base identifier ("" when none)
  std::string receivewhen;  ///< guard expression text ("" when unguarded)
  int line = 0;             ///< line of the posting directive
};

using translate::clause_column;

/// Does [begin,end) reference `identifier` as a whole token in live code
/// (comments/strings masked out), outside the given excluded subranges?
bool references_identifier(
    const AnalysisContext& ctx, std::size_t begin, std::size_t end,
    const std::string& identifier,
    const std::vector<std::pair<std::size_t, std::size_t>>& exclude);

/// Rank-symbolic match analysis + count checks + dead-directive detection
/// for one comm_p2p (CID-M010..M015, CID-S034) or comm_collective
/// (root-range check). Every pass reads the node's resolved clauses.
void check_match_and_counts(AnalysisContext& ctx,
                            const translate::DirectiveNode& node);

/// Buffer race checks for one comm_p2p: rbuf already in flight (CID-B020),
/// sbuf/rbuf self-alias on a rank that both sends and receives (CID-B021),
/// overlap statements touching an in-flight rbuf (CID-B022). Appends the
/// directive's rbufs to `inflight` when `append` is set (directives inside a
/// comm_parameters region, whose consolidated sync is still to come);
/// standalone directives synchronize immediately and leave nothing behind.
void check_p2p_buffers(AnalysisContext& ctx,
                       const translate::DirectiveNode& node,
                       std::vector<InFlight>& inflight, bool append);

/// CID-B023: statements in [begin,end) touching buffers whose sync was
/// deferred past their region (place_sync BEGIN_NEXT/END_ADJ).
void check_gap_references(AnalysisContext& ctx, std::size_t begin,
                          std::size_t end,
                          const std::vector<InFlight>& deferred);

/// Reflection rules surfaced at lint time (CID-T040..T042) for every
/// composite buffer of the directive.
void check_buffer_types(AnalysisContext& ctx,
                        const translate::DirectiveNode& node);

}  // namespace cid::analyze::detail
