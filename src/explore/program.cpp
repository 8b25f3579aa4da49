#include "explore/program.hpp"

#include "core/clauses.hpp"
#include "core/pragma.hpp"
#include "translate/scan.hpp"

namespace cid::explore {

namespace {

using core::DirectiveKind;
using core::ParsedDirective;
using translate::DirectiveNode;

ClauseExpr prepare_clause(const ParsedDirective& merged, const char* name,
                          bool* unparsable) {
  ClauseExpr out;
  const core::RawClause* clause = merged.find(name);
  if (clause == nullptr) return out;
  out.present = true;
  out.text = clause->args[0];
  auto parsed = core::Expr::parse(out.text);
  if (!parsed.is_ok()) {
    *unparsable = true;
    return out;
  }
  out.expr = std::move(parsed).take();
  for (const std::string& variable : out.expr.free_variables()) {
    if (variable != "rank" && variable != "nprocs") out.symbolic = true;
  }
  return out;
}

struct Builder {
  Program program;
  SyncScope open;

  void flush() {
    if (open.ops.empty()) return;
    program.scopes.push_back(std::move(open));
    open = SyncScope{};
  }

  void note(const DirectiveNode& node, const std::string& text) {
    program.notes.push_back("line " + std::to_string(node.line) + ": " + text);
  }

  int new_site(int line) {
    program.site_lines.push_back(line);
    return static_cast<int>(program.site_lines.size()) - 1;
  }

  void add_p2p(const DirectiveNode& node) {
    const ParsedDirective& merged = node.resolved;
    Op op;
    op.site = new_site(node.line);
    op.line = node.line;
    bool unparsable = false;
    op.sender = prepare_clause(merged, "sender", &unparsable);
    op.receiver = prepare_clause(merged, "receiver", &unparsable);
    op.sendwhen = prepare_clause(merged, "sendwhen", &unparsable);
    op.receivewhen = prepare_clause(merged, "receivewhen", &unparsable);
    if (unparsable) {
      note(node, "comm_p2p skipped: clause expression does not parse "
                 "(CID-P003 territory)");
      return;
    }
    if (!op.sender.present || !op.receiver.present) {
      note(node, "comm_p2p skipped: missing sender/receiver after "
                 "inheritance (CID-P005 territory)");
      return;
    }
    if (const auto* sbuf = merged.find("sbuf");
        sbuf != nullptr && !sbuf->args.empty()) {
      op.sbuf = sbuf->args[0];
      if (sbuf->args.size() > 1) {
        note(node, "only the first sbuf/rbuf pair is modeled");
      }
    }
    if (const auto* rbuf = merged.find("rbuf");
        rbuf != nullptr && !rbuf->args.empty()) {
      op.rbuf = rbuf->args[0];
    }
    if (op.sender.symbolic || op.receiver.symbolic || op.sendwhen.symbolic ||
        op.receivewhen.symbolic) {
      ++program.symbolic_clauses;
    }
    open.ops.push_back(std::move(op));
  }

  void add_collective(const DirectiveNode& node) {
    const ParsedDirective& merged = node.resolved;
    Op op;
    op.collective = true;
    op.site = new_site(node.line);
    op.line = node.line;
    const core::RawClause* pattern = merged.find("pattern");
    if (pattern == nullptr || pattern->args.empty()) {
      note(node, "comm_collective skipped: missing pattern clause");
      return;
    }
    auto kind = core::parse_pattern_keyword(pattern->args[0]);
    if (!kind.is_ok()) {
      note(node, "comm_collective skipped: unknown pattern '" +
                     pattern->args[0] + "'");
      return;
    }
    switch (kind.value()) {
      case core::Pattern::OneToMany:
        op.kind = CollectiveKind::Bcast;
        break;
      case core::Pattern::ManyToOne:
        op.kind = CollectiveKind::Gather;
        break;
      case core::Pattern::AllToAll:
        op.kind = CollectiveKind::AllToAll;
        break;
    }
    bool unparsable = false;
    op.root = prepare_clause(merged, "root", &unparsable);
    if (unparsable) {
      note(node, "comm_collective skipped: root expression does not parse");
      return;
    }
    if (op.root.symbolic) ++program.symbolic_clauses;
    open.ops.push_back(std::move(op));
  }

  /// Walk the children of a region (or the root list, `in_region` false).
  /// A nested comm_parameters closes the surrounding scope: its transfers
  /// complete at its own end, before anything posted after it.
  void walk(const std::vector<DirectiveNode>& nodes, bool in_region) {
    for (const DirectiveNode& node : nodes) {
      const ParsedDirective& merged = node.resolved;
      switch (merged.kind) {
        case DirectiveKind::CommParameters: {
          flush();
          if (merged.find("reliability") != nullptr) {
            note(node, "reliability clause ignored (no fault layer under "
                       "exploration)");
          }
          if (merged.find("max_comm_iter") != nullptr) {
            note(node, "region body executes once (max_comm_iter ignored)");
          }
          if (const auto* sync = merged.find("place_sync");
              sync != nullptr && !sync->args.empty() &&
              sync->args[0] != "END_PARAM_REGION") {
            note(node, "place_sync " + sync->args[0] +
                           " modeled as END_PARAM_REGION");
          }
          const int before = static_cast<int>(program.scopes.size());
          walk(node.children, /*in_region=*/true);
          flush();
          if (static_cast<int>(program.scopes.size()) > before &&
              program.scopes[before].line == 0) {
            program.scopes[before].line = node.line;
          }
          break;
        }
        case DirectiveKind::CommP2P:
          add_p2p(node);
          if (open.line == 0) open.line = node.line;
          if (!in_region) flush();  // standalone: own sync scope
          break;
        case DirectiveKind::CommCollective:
          add_collective(node);
          if (open.line == 0) open.line = node.line;
          if (!in_region) flush();
          break;
      }
    }
  }
};

}  // namespace

Result<Program> build_program(std::string_view source) {
  const translate::DirectiveTree tree = translate::scan_directives(source);
  if (!tree.issues.empty()) return tree.issues.front().located();
  Builder builder;
  builder.walk(tree.roots, /*in_region=*/false);
  builder.flush();
  return std::move(builder.program);
}

}  // namespace cid::explore
