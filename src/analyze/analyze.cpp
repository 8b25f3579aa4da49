// The analysis driver: scans the source into the directive tree the
// translator lowers (clause inheritance already resolved), recovers the
// declaration model, then walks the tree with the translator's
// synchronization placement, dispatching the match, buffer and type passes
// and performing the sync-placement checks itself (they need sibling
// context the per-directive passes do not have).
#include <algorithm>
#include <cctype>
#include <string>

#include "analyze/analyze.hpp"
#include "analyze/passes.hpp"
#include "core/clauses.hpp"
#include "core/expr.hpp"
#include "translate/scan.hpp"

namespace cid::analyze {

using translate::DirectiveNode;
using translate::DirectiveTree;

namespace detail {

int clause_column(const DirectiveNode& node, const core::RawClause& clause) {
  // Clause offsets index the joined pragma text; for single-line pragmas
  // that text starts at the '#', so the offset maps straight to a column.
  // Continuation joining rewrites whitespace, and clauses inherited from an
  // enclosing region live on a different line entirely — both fall back to
  // the pragma's own column.
  if (node.pragma_continued) return node.column;
  const core::RawClause* own = node.directive.find(clause.name);
  if (own == nullptr || own->offset != clause.offset) return node.column;
  return node.column + static_cast<int>(clause.offset);
}

namespace {
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

bool references_identifier(
    const AnalysisContext& ctx, std::size_t begin, std::size_t end,
    const std::string& identifier,
    const std::vector<std::pair<std::size_t, std::size_t>>& exclude) {
  if (identifier.empty()) return false;
  const std::string_view source = ctx.source;
  end = std::min(end, source.size());
  for (std::size_t i = begin; i + identifier.size() <= end; ++i) {
    if (ctx.mask[i] == 0) continue;
    bool excluded = false;
    for (const auto& [from, to] : exclude) {
      if (i >= from && i < to) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    if (source.compare(i, identifier.size(), identifier) != 0) continue;
    if (i > begin && ident_char(source[i - 1])) continue;
    const std::size_t after = i + identifier.size();
    if (after < end && ident_char(source[after])) continue;
    return true;
  }
  return false;
}

}  // namespace detail

namespace {

using detail::AnalysisContext;
using detail::InFlight;

/// Receives whose consolidated sync was deferred past their region by
/// place_sync, waiting for the next sibling region.
struct PendingSync {
  std::vector<InFlight> entries;
  bool clears_at_next_begin = false;  ///< BEGIN_NEXT vs END_ADJ
};

class Walker {
 public:
  explicit Walker(AnalysisContext& ctx) : ctx_(ctx) {}

  void run(const std::vector<DirectiveNode>& roots) {
    std::vector<InFlight> inflight;
    sequence(roots, nullptr, inflight);
  }

 private:
  AnalysisContext& ctx_;

  static bool is_region(const DirectiveNode& node) {
    return node.directive.kind == core::DirectiveKind::CommParameters;
  }

  /// The region's own synchronization placement (never inherited — matching
  /// the translator, which reads place_sync off the region directive only).
  core::SyncPlacement placement_of(const DirectiveNode& node) {
    const core::RawClause* clause = node.directive.find("place_sync");
    if (clause == nullptr) return core::SyncPlacement::EndParamRegion;
    auto parsed = core::parse_sync_placement_keyword(clause->args[0]);
    if (!parsed.is_ok()) return core::SyncPlacement::EndParamRegion;
    return parsed.value();
  }

  /// Clause-value checks on a region directive: place_sync/target keywords
  /// (CID-S032), max_comm_iter positivity (CID-S032), conflicts with the
  /// enclosing region `parent` (CID-S033) and reliability constraints
  /// (CID-S035).
  void check_region_clauses(const DirectiveNode& node,
                            const DirectiveNode* parent) {
    const core::ParsedDirective& merged = node.resolved;
    if (const auto* clause = node.directive.find("place_sync")) {
      auto parsed = core::parse_sync_placement_keyword(clause->args[0]);
      if (!parsed.is_ok()) {
        ctx_.report.add("CID-S032", Severity::Error, node.line,
                        detail::clause_column(node, *clause),
                        "place_sync(" + clause->args[0] + "): " +
                            parsed.status().message());
      }
    }
    if (const auto* clause = node.directive.find("max_comm_iter")) {
      auto expr = core::Expr::parse(clause->args[0]);
      if (expr.is_ok() && expr.value().free_variables().empty()) {
        auto value = expr.value().eval(core::Env{});
        if (value.is_ok() && value.value() <= 0) {
          ctx_.report.add(
              "CID-S032", Severity::Error, node.line,
              detail::clause_column(node, *clause),
              "max_comm_iter(" + clause->args[0] + ") evaluates to " +
                  std::to_string(value.value()) +
                  "; the region would execute no communication iterations");
        }
      }
      if (parent != nullptr) {
        if (const auto* outer = parent->resolved.find("max_comm_iter");
            outer != nullptr && outer->args[0] != clause->args[0]) {
          ctx_.report.add(
              "CID-S033", Severity::Warning, node.line,
              detail::clause_column(node, *clause),
              "max_comm_iter(" + clause->args[0] +
                  ") overrides the enclosing region's max_comm_iter(" +
                  outer->args[0] +
                  "); nested regions iterate under the inner bound only",
              "drop the inner clause or make the bounds agree");
        }
      }
    }
    if (const auto* clause = merged.find("reliability")) {
      // TARGET_COMM_AUTO is fine: the runtime tuner forces the two-sided
      // lowering whenever a reliability clause is present.
      if (const auto* target = merged.find("target");
          target != nullptr && target->args[0] != "TARGET_COMM_MPI_2SIDE" &&
          target->args[0] != "TARGET_COMM_AUTO") {
        ctx_.report.add(
            "CID-S035", Severity::Error, node.line,
            detail::clause_column(node, *clause),
            "reliability requires TARGET_COMM_MPI_2SIDE, but the region "
            "targets " + target->args[0],
            "the ack/retransmit protocol rides on two-sided messages; drop "
            "the target clause or the reliability clause");
      }
      for (std::size_t i = 0; i < clause->args.size(); ++i) {
        auto expr = core::Expr::parse(clause->args[i]);
        if (!expr.is_ok() || !expr.value().free_variables().empty()) continue;
        auto value = expr.value().eval(core::Env{});
        if (!value.is_ok()) continue;
        if ((i == 0 && value.value() <= 0) || (i == 1 && value.value() < 0)) {
          ctx_.report.add(
              "CID-S035", Severity::Warning, node.line,
              detail::clause_column(node, *clause),
              "reliability(" + clause->args[0] + ", " + clause->args[1] +
                  "): " + (i == 0 ? "timeout must be positive"
                                  : "retry count must be non-negative"));
          break;
        }
      }
    }
    if (const auto* clause = node.directive.find("target")) {
      auto parsed = core::parse_target_keyword(clause->args[0]);
      if (!parsed.is_ok()) {
        ctx_.report.add("CID-S032", Severity::Error, node.line,
                        detail::clause_column(node, *clause),
                        "target(" + clause->args[0] + "): " +
                            parsed.status().message());
      }
    }
  }

  /// Walk one sibling sequence: the file top level, or the body of the
  /// region `parent`.
  void sequence(const std::vector<DirectiveNode>& nodes,
                const DirectiveNode* parent, std::vector<InFlight>& inflight) {
    std::vector<PendingSync> pending;
    std::size_t previous_end = std::string::npos;

    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const DirectiveNode& node = nodes[k];
      ++ctx_.report.directives_checked;

      // Statements between this node and the previous sibling run while
      // deferred receives are still in flight.
      if (!pending.empty() && previous_end != std::string::npos &&
          previous_end < node.pragma_begin) {
        for (const PendingSync& sync : pending) {
          detail::check_gap_references(ctx_, previous_end, node.pragma_begin,
                                       sync.entries);
        }
      }

      if (is_region(node)) {
        check_region_clauses(node, parent);

        const core::SyncPlacement placement = placement_of(node);
        const bool defers =
            placement != core::SyncPlacement::EndParamRegion;
        if (defers) {
          // Deferred syncs drain only at a later sibling region.
          bool has_following_region = false;
          for (std::size_t j = k + 1; j < nodes.size(); ++j) {
            if (is_region(nodes[j])) has_following_region = true;
          }
          if (!has_following_region) {
            const bool begin_next =
                placement == core::SyncPlacement::BeginNextParamRegion;
            ctx_.report.add(
                begin_next ? "CID-S030" : "CID-S031", Severity::Error,
                node.line, node.column,
                std::string("place_sync(") +
                    (begin_next ? "BEGIN_NEXT_PARAM_REGION"
                                : "END_ADJ_PARAM_REGIONS") +
                    ") defers the consolidated sync to a following "
                    "parameter region, but no region follows this one",
                "the receives posted here would never be completed; use "
                "END_PARAM_REGION or add the adjacent region");
          }
        }

        // BEGIN_NEXT deferred syncs from earlier siblings land at this
        // region's begin; END_ADJ ones stay in flight through its body.
        pending.erase(
            std::remove_if(pending.begin(), pending.end(),
                           [](const PendingSync& sync) {
                             return sync.clears_at_next_begin;
                           }),
            pending.end());
        const std::size_t injected_begin = inflight.size();
        for (const PendingSync& sync : pending) {
          inflight.insert(inflight.end(), sync.entries.begin(),
                          sync.entries.end());
        }

        const std::size_t fresh_begin = inflight.size();
        sequence(node.children, &node, inflight);

        std::vector<InFlight> fresh(inflight.begin() + fresh_begin,
                                    inflight.end());
        inflight.resize(injected_begin);
        pending.clear();  // END_ADJ syncs land at this adjacent region's end
        if (defers && !fresh.empty()) {
          pending.push_back(
              {std::move(fresh),
               placement == core::SyncPlacement::BeginNextParamRegion});
        }
      } else {
        if (detail::check_required_clauses(ctx_, node)) {
          detail::check_match_and_counts(ctx_, node);
          detail::check_buffer_types(ctx_, node);
          detail::check_p2p_buffers(ctx_, node, inflight,
                                    /*append=*/parent != nullptr);
        }
        if (const auto* clause = node.directive.find("target")) {
          auto parsed = core::parse_target_keyword(clause->args[0]);
          if (!parsed.is_ok()) {
            ctx_.report.add("CID-S032", Severity::Error, node.line,
                            detail::clause_column(node, *clause),
                            "target(" + clause->args[0] + "): " +
                                parsed.status().message());
          }
        }
      }
      previous_end = node.node_end;
    }
  }
};

/// A scan issue as a diagnostic, under the id the scanner gave it.
void add_scan_issue(Report& report, const translate::ScanIssue& issue) {
  const std::string_view id = issue.id;
  std::string hint;
  if (id == "CID-P001") hint = "see docs/DIRECTIVES.md for the clause grammar";
  if (id == "CID-P004") {
    hint = "every '\\'-continued line must be followed by another line";
  }
  report.add(issue.id, Severity::Error, issue.line, issue.column,
             issue.status.message(), std::move(hint));
}

}  // namespace

Report analyze_source(std::string_view source, const Options& options) {
  Report report;
  const DirectiveTree tree = translate::scan_directives(source);
  const SourceModel model = SourceModel::scan(source, tree.mask);

  for (const translate::ScanIssue& issue : tree.issues) {
    add_scan_issue(report, issue);
  }

  AnalysisContext ctx{source, tree.mask, model, options, report};
  Walker(ctx).run(tree.roots);
  report.sort();
  return report;
}

}  // namespace cid::analyze
