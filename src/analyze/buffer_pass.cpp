// Buffer race detection over the directive tree.
//
// The translated program posts nonblocking operations at each comm_p2p and
// completes them at the region's consolidated synchronization, so between
// the directive and the sync every rbuf is live hardware territory. These
// checks find the textual patterns that reuse that territory: a second
// receive into an rbuf still in flight (CID-B020), a directive whose send
// and receive buffers alias on a rank that does both (CID-B021), an
// overlap block touching the buffer it is supposed to be overlapping with
// (CID-B022), and statements between regions touching buffers whose sync
// was deferred by place_sync (CID-B023).
//
// Guards are respected: two receives into the same buffer race only when
// some rank can post both, so receivewhen/sendwhen expressions are swept
// exactly like the match pass sweeps them. Symbolic guards make the pair
// unprovable and produce no diagnostic.
#include <cctype>
#include <optional>

#include "analyze/passes.hpp"
#include "core/expr.hpp"

namespace cid::analyze::detail {

namespace {

using core::Env;
using core::Expr;
using core::RawClause;
using translate::DirectiveNode;

std::string normalized(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

/// A sendwhen/receivewhen guard prepared for the sweep. Absent guards are
/// always true (the directive fires unconditionally); symbolic guards make
/// every query unprovable.
struct Guard {
  bool present = false;
  bool symbolic = false;
  Expr expr;

  static Guard from_text(const std::string& text) {
    Guard guard;
    if (text.empty()) return guard;
    guard.present = true;
    auto parsed = Expr::parse(text);
    if (!parsed.is_ok()) {
      guard.symbolic = true;  // unparseable: treat as unprovable
      return guard;
    }
    guard.expr = std::move(parsed).take();
    for (const std::string& variable : guard.expr.free_variables()) {
      if (variable != "rank" && variable != "nprocs") guard.symbolic = true;
    }
    return guard;
  }

  static Guard from_clause(const core::ParsedDirective& merged,
                           const char* name) {
    const RawClause* clause = merged.find(name);
    return from_text(clause == nullptr ? std::string() : clause->args[0]);
  }

  bool true_on(int rank, int nprocs) const {
    if (!present) return true;
    Env env;
    env.bind("rank", rank);
    env.bind("nprocs", nprocs);
    auto value = expr.eval(env);
    return value.is_ok() && value.value() != 0;
  }
};

/// First (nprocs, rank) in the sweep where both guards hold; nullopt when
/// provably disjoint or when either guard is symbolic.
std::optional<std::pair<int, int>> first_overlap(const AnalysisContext& ctx,
                                                 const Guard& a,
                                                 const Guard& b) {
  if (a.symbolic || b.symbolic) return std::nullopt;
  for (int nprocs = ctx.options.nprocs_min; nprocs <= ctx.options.nprocs_max;
       ++nprocs) {
    for (int rank = 0; rank < nprocs; ++rank) {
      if (a.true_on(rank, nprocs) && b.true_on(rank, nprocs)) {
        return std::make_pair(nprocs, rank);
      }
    }
  }
  return std::nullopt;
}

std::string guard_text(const core::ParsedDirective& merged, const char* name) {
  const RawClause* clause = merged.find(name);
  return clause == nullptr ? std::string() : clause->args[0];
}

}  // namespace

void check_p2p_buffers(AnalysisContext& ctx, const DirectiveNode& node,
                       std::vector<InFlight>& inflight, bool append) {
  const core::ParsedDirective& merged = node.resolved;
  if (merged.kind != core::DirectiveKind::CommP2P) return;
  const RawClause* sbuf = merged.find("sbuf");
  const RawClause* rbuf = merged.find("rbuf");

  const std::string receivewhen = guard_text(merged, "receivewhen");
  const Guard recv_guard = Guard::from_text(receivewhen);

  // CID-B020: a receive into a buffer an earlier directive of the same
  // region chain is still receiving into.
  bool reported_b020 = false;
  for (const std::string& argument : rbuf->args) {
    const std::string text = normalized(argument);
    for (const InFlight& earlier : inflight) {
      if (earlier.text != text || reported_b020) continue;
      const Guard earlier_guard = Guard::from_text(earlier.receivewhen);
      const auto overlap = first_overlap(ctx, recv_guard, earlier_guard);
      if (!overlap.has_value()) continue;
      reported_b020 = true;
      ctx.report.add(
          "CID-B020", Severity::Error, node.line,
          clause_column(node, *rbuf),
          "rbuf(" + argument + ") is reused while the receive posted by the "
              "directive at line " + std::to_string(earlier.line) +
              " is still in flight (rank " + std::to_string(overlap->second) +
              " posts both at nprocs=" + std::to_string(overlap->first) + ")",
          "both receives complete only at the consolidated sync, so the "
          "second arrival overwrites the first; use distinct buffers or "
          "split the region");
    }
  }

  // CID-B021: send and receive staged through the same memory on a rank
  // that does both.
  const Guard send_guard = Guard::from_text(guard_text(merged, "sendwhen"));
  for (std::size_t i = 0; i < rbuf->args.size(); ++i) {
    if (normalized(sbuf->args[i]) != normalized(rbuf->args[i])) continue;
    const auto overlap = first_overlap(ctx, send_guard, recv_guard);
    if (!overlap.has_value()) continue;
    ctx.report.add(
        "CID-B021", Severity::Error, node.line,
        clause_column(node, *rbuf),
        "sbuf and rbuf both name '" + sbuf->args[i] + "' and rank " +
            std::to_string(overlap->second) + " both sends and receives "
            "at nprocs=" + std::to_string(overlap->first) +
            ", so the incoming message overwrites the outgoing data",
        "stage through distinct buffers, or make sendwhen/receivewhen "
        "disjoint as in the paper's transfer_atom example");
    break;
  }

  // CID-B022: the overlap block (the directive's own body) touching an rbuf
  // whose receive it is overlapping with. Clause text of nested pragmas is
  // excluded — naming a buffer in a directive is not touching it.
  if (node.body_is_block) {
    std::vector<std::pair<std::size_t, std::size_t>> exclude;
    for (const DirectiveNode& child : node.children) {
      exclude.emplace_back(child.pragma_begin, child.body_begin);
    }
    for (const std::string& argument : rbuf->args) {
      const std::string base = buffer_base_identifier(argument);
      if (base.empty()) continue;
      if (references_identifier(ctx, node.body_begin, node.body_end, base,
                                exclude)) {
        ctx.report.add(
            "CID-B022", Severity::Warning, node.line,
            clause_column(node, *rbuf),
            "the overlap block reads or writes '" + base + "' while the "
                "receive into rbuf(" + argument + ") is in flight",
            "the receive completes only at the consolidated sync; overlap "
            "computation must not touch the buffers being transferred");
        break;
      }
    }
  }

  if (!append) return;
  for (const std::string& argument : rbuf->args) {
    InFlight entry;
    entry.text = normalized(argument);
    entry.base = buffer_base_identifier(argument);
    entry.receivewhen = receivewhen;
    entry.line = node.line;
    inflight.push_back(std::move(entry));
  }
}

void check_gap_references(AnalysisContext& ctx, std::size_t begin,
                          std::size_t end,
                          const std::vector<InFlight>& deferred) {
  for (const InFlight& entry : deferred) {
    if (entry.base.empty()) continue;
    if (!references_identifier(ctx, begin, end, entry.base, {})) continue;
    ctx.report.add(
        "CID-B023", Severity::Warning, translate::line_of(ctx.source, begin),
        0,
        "code between parameter regions touches '" + entry.base +
            "' while the receive posted at line " +
            std::to_string(entry.line) +
            " is still waiting for its deferred synchronization",
        "place_sync moved the consolidated sync past this code; move the "
        "statements after the next region or use END_PARAM_REGION");
  }
}

void check_buffer_types(AnalysisContext& ctx, const DirectiveNode& node) {
  const core::ParsedDirective& merged = node.resolved;
  bool reported_pointer = false;
  bool reported_nested = false;
  bool reported_unregistered = false;
  for (const char* list_name : {"sbuf", "rbuf"}) {
    const RawClause* list = merged.find(list_name);
    for (const std::string& argument : list->args) {
      const std::string base = buffer_base_identifier(argument);
      if (base.empty()) continue;
      const StructDecl* decl = ctx.model.struct_of_variable(base);
      if (decl == nullptr) continue;
      for (const StructFieldDecl& field : decl->fields) {
        if (field.is_pointer && !reported_pointer) {
          reported_pointer = true;
          ctx.report.add(
              "CID-T040", Severity::Error, node.line,
              clause_column(node, *list),
              "buffer '" + base + "' has composite type '" + decl->name +
                  "' whose member '" + field.name + "' is a pointer; "
                  "reflection transfers raw bytes and cannot follow it",
              "transfer the pointee through its own buffer clause, as the "
              "paper's AtomScalars/vr split does");
        }
        if (!field.is_pointer && !reported_nested &&
            ctx.model.structs.count(field.type) != 0) {
          reported_nested = true;
          ctx.report.add(
              "CID-T041", Severity::Error, node.line,
              clause_column(node, *list),
              "buffer '" + base + "' has composite type '" + decl->name +
                  "' whose member '" + field.name +
                  "' is itself a composite ('" + field.type +
                  "'); nested composites are rejected by type reflection",
              "flatten the nested structure or transfer its fields "
              "directly");
        }
      }
      if (!decl->reflected && !reported_unregistered) {
        reported_unregistered = true;
        ctx.report.add(
            "CID-T042", Severity::Warning, node.line,
            clause_column(node, *list),
            "composite buffer type '" + decl->name +
                "' is transferred but has no CID_REFLECT_STRUCT "
                "registration in this file",
            "register the type with CID_REFLECT_STRUCT(" + decl->name +
                ", ...) so the runtime can derive its layout");
      }
    }
  }
}

}  // namespace cid::analyze::detail
