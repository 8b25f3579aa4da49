#include "translate/translator.hpp"

#include <vector>

#include "common/strings.hpp"
#include "core/pragma.hpp"
#include "translate/scan.hpp"

namespace cid::translate {

namespace {

using core::DirectiveKind;
using core::ParsedDirective;
using core::RawClause;
using core::SyncPlacement;
using core::Target;

// ---------------------------------------------------------------------------
// Clause utilities (the directive tree, with inheritance resolved, comes
// from translate/scan.cpp, shared with the analyzer and the explorer)
// ---------------------------------------------------------------------------

std::string clause_arg(const ParsedDirective& directive,
                       std::string_view name, std::string fallback = {}) {
  const RawClause* clause = directive.find(name);
  return clause != nullptr ? clause->args[0] : fallback;
}

std::vector<std::string> clause_args(const ParsedDirective& directive,
                                     std::string_view name) {
  const RawClause* clause = directive.find(name);
  return clause != nullptr ? clause->args : std::vector<std::string>{};
}

// ---------------------------------------------------------------------------
// Translator
// ---------------------------------------------------------------------------

class Translator {
 public:
  Translator(std::string_view source, const Options& options)
      : source_(source), options_(options) {}

  Result<Translation> run() {
    const DirectiveTree tree = scan_directives(source_);
    if (!tree.issues.empty()) return tree.issues.front().located();
    auto body = translate_range(0, source_.size(), tree.roots, nullptr);
    if (!body.is_ok()) return body.status();
    Translation out;
    out.source = std::move(body).take();
    if (!deferred_syncs_.empty()) {
      out.source +=
          "\n/* cid-translate WARNING: deferred synchronization without a "
          "following comm_parameters region; draining here. */\n";
      out.source += drain_deferred(/*only_begin_next=*/false);
    }
    out.summary = summary_;
    return out;
  }

 private:
  struct RegionContext {
    std::string requests_var;  ///< MPI request vector in scope
    std::string comm_var;
    bool used_mpi2 = false;
    bool used_shmem = false;
    /// A reliability clause forces the embedded-API lowering: the ack/
    /// retransmit protocol is a runtime service, not a call pattern the
    /// translator can open-code.
    bool reliable = false;
    std::string region_var;  ///< the ::cid::core::Region lambda parameter
  };

  struct DeferredSync {
    std::string code;       ///< the synchronization statement(s)
    bool at_next_begin;     ///< BEGIN_NEXT_PARAM_REGION vs END_ADJ_*
  };

  /// Splice source_[begin, end): bytes between `nodes` are copied verbatim,
  /// each node is replaced by its generated code. `region` is the innermost
  /// enclosing comm_parameters context (nullptr at top level).
  Result<std::string> translate_range(std::size_t begin, std::size_t end,
                                      const std::vector<DirectiveNode>& nodes,
                                      RegionContext* region) {
    std::string out;
    std::size_t i = begin;
    for (const DirectiveNode& node : nodes) {
      out.append(source_.substr(i, node.pragma_begin - i));
      if (node.directive.kind == DirectiveKind::CommParameters) {
        auto code = emit_region(node);
        if (!code.is_ok()) return code.status();
        out += std::move(code).take();
      } else if (node.directive.kind == DirectiveKind::CommCollective) {
        const Status lowerable = collective_lowerable(node, region);
        if (!lowerable.is_ok()) return at_line(node.line, lowerable);
        out += emit_collective(node);
      } else {
        out += emit_p2p(node, region);
      }
      i = node.node_end;
    }
    out.append(source_.substr(i, end - i));
    return out;
  }

  /// The directive's body text (overlapped computation of a comm_p2p, the
  /// post-collective statement of a comm_collective).
  std::string body_text(const DirectiveNode& node) const {
    return std::string(
        source_.substr(node.body_begin, node.body_end - node.body_begin));
  }

  // --- code generation ----------------------------------------------------

  Target directive_target(const ParsedDirective& directive) const {
    const RawClause* clause = directive.find("target");
    if (clause == nullptr) return options_.default_target;
    // The scanner has checked the keyword. target(auto) adapts per site at
    // runtime (cid::tune); the open-coded translation is static, so it
    // lowers to the configured default.
    const Target target = core::parse_target_keyword(clause->args[0]).value();
    return target == Target::Auto ? options_.default_target : target;
  }

  std::string annotate(const std::string& note) const {
    return options_.annotate ? "/* cid-translate: " + note + " */" : "";
  }

  /// A clause's C expression wrapped as a runtime callable, evaluated in the
  /// user's scope each time the directive executes (the embedded-API
  /// equivalent of pasting the expression into generated code).
  static std::string expr_lambda(const std::string& expr) {
    return "[&]() -> ::cid::core::ExprValue { return "
           "static_cast<::cid::core::ExprValue>(" +
           expr + "); }";
  }

  /// Rebuild a parsed clause set as a ::cid::core::Clauses builder chain for
  /// the embedded-API lowering (reliable regions). The scanner has checked
  /// the keywords, and that a reliable directive targets two-sided MPI or
  /// TARGET_COMM_AUTO (resolved per site by the runtime, which forces the
  /// two-sided lowering under reliability: tune::auto_target).
  static std::string clauses_builder(const ParsedDirective& directive) {
    std::string out = "::cid::core::Clauses()";
    for (const auto& clause : directive.clauses) {
      if (clause.name == "sender" || clause.name == "receiver" ||
          clause.name == "sendwhen" || clause.name == "receivewhen" ||
          clause.name == "count" || clause.name == "max_comm_iter") {
        out += "\n    ." + clause.name + "(" + expr_lambda(clause.args[0]) +
               ")";
      } else if (clause.name == "reliability") {
        out += "\n    .reliability(" + expr_lambda(clause.args[0]) + ", " +
               expr_lambda(clause.args[1]) + ")";
      } else if (clause.name == "target") {
        out += clause.args[0] == "TARGET_COMM_AUTO"
                   ? "\n    .target(::cid::core::Target::Auto)"
                   : "\n    .target(::cid::core::Target::Mpi2Side)";
      } else if (clause.name == "place_sync") {
        constexpr const char* kPlacements[] = {
            "EndParamRegion", "BeginNextParamRegion", "EndAdjParamRegions"};
        const SyncPlacement placement =
            core::parse_sync_placement_keyword(clause.args[0]).value();
        out += "\n    .place_sync(::cid::core::SyncPlacement::" +
               std::string(kPlacements[static_cast<int>(placement)]) + ")";
      } else if (clause.name == "sbuf" || clause.name == "rbuf") {
        for (const auto& arg : clause.args) {
          out += "\n    ." + clause.name + "(::cid::core::buf(" + arg +
                 ", \"" + arg + "\"))";
        }
      }
    }
    return out;
  }

  Result<std::string> emit_region(const DirectiveNode& node) {
    ++summary_.parameter_regions;
    const int id = next_id_++;

    RegionContext region;
    region.requests_var = "cid_reqs_" + std::to_string(id);
    region.comm_var = "cid_comm_" + std::to_string(id);
    region.reliable = node.resolved.find("reliability") != nullptr;
    region.region_var = "cid_region_" + std::to_string(id);

    if (region.reliable) {
      ++summary_.reliable_regions;
      // The reliability protocol (ack/timeout/retransmit, DeliveryReport)
      // lives in the runtime, so the region is lowered through the embedded
      // API instead of open-coded message passing; nested comm_p2p
      // directives become Region::p2p calls on the lambda's Region.
      auto body = translate_range(node.body_begin, node.body_end,
                                  node.children, &region);
      if (!body.is_ok()) return body.status();
      std::string out;
      out += "{ " + annotate("comm_parameters region " + std::to_string(id) +
                             " (reliable: runtime-lowered)") + "\n";
      out += drain_deferred(/*only_begin_next=*/true);
      out += "::cid::core::comm_parameters(" + clauses_builder(node.resolved) +
             ",\n    [&](::cid::core::Region& " + region.region_var +
             ") {\n";
      out += std::move(body).take();
      out += "}); " +
             annotate("reliable synchronization: ack/retransmit protocol "
                      "drains here") +
             "\n";
      out += "}\n";
      ++summary_.consolidated_syncs;
      return out;
    }

    auto body = translate_range(node.body_begin, node.body_end, node.children,
                                &region);
    if (!body.is_ok()) return body.status();

    // place_sync is read off the region's own clauses, never inherited.
    const RawClause* place_sync = node.directive.find("place_sync");
    const SyncPlacement placement =
        place_sync == nullptr
            ? SyncPlacement::EndParamRegion
            : core::parse_sync_placement_keyword(place_sync->args[0]).value();

    std::string sync_code;
    if (region.used_mpi2) {
      sync_code += "::cid::mpi::waitall(" + region.requests_var + "); " +
                   annotate("consolidated synchronization") + "\n";
      ++summary_.consolidated_syncs;
    }
    if (region.used_shmem) {
      sync_code += "::cid::shmem::barrier_all(); " +
                   annotate("consolidated SHMEM synchronization") + "\n";
      ++summary_.consolidated_syncs;
    }

    std::string out;
    // Requests vector lives in the enclosing scope when synchronization is
    // deferred past the region, else inside the region block.
    const bool deferred = placement != SyncPlacement::EndParamRegion;
    std::string decls;
    if (region.used_mpi2) {
      decls += "std::vector<::cid::mpi::Request> " + region.requests_var +
               ";\n";
      decls += "auto " + region.comm_var + " = " + options_.comm_expr + ";\n";
    } else if (region.used_shmem || region_needs_comm_) {
      decls += "auto " + region.comm_var + " = " + options_.comm_expr + ";\n";
    }
    region_needs_comm_ = false;

    if (deferred && region.used_mpi2) {
      out += decls;  // enclosing scope
      out += "{ " + annotate("comm_parameters region " + std::to_string(id)) +
             "\n";
    } else {
      out += "{ " + annotate("comm_parameters region " + std::to_string(id)) +
             "\n";
      out += decls;
    }

    // BEGIN_NEXT deferred syncs from earlier regions drain at this region's
    // beginning; END_ADJ ones at this region's end (when not deferring).
    out += drain_deferred(/*only_begin_next=*/true);
    out += std::move(body).take();

    switch (placement) {
      case SyncPlacement::EndParamRegion:
        out += drain_deferred(/*only_begin_next=*/false);
        out += sync_code;
        out += "}\n";
        break;
      case SyncPlacement::BeginNextParamRegion:
        out += "}\n";
        deferred_syncs_.push_back({sync_code, /*at_next_begin=*/true});
        break;
      case SyncPlacement::EndAdjParamRegions:
        out += "}\n";
        deferred_syncs_.push_back({sync_code, /*at_next_begin=*/false});
        break;
    }
    return out;
  }

  std::string drain_deferred(bool only_begin_next) {
    std::string out;
    auto it = deferred_syncs_.begin();
    while (it != deferred_syncs_.end()) {
      if (!only_begin_next || it->at_next_begin) {
        out += it->code;
        it = deferred_syncs_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  /// The two rules only the translator has: the open-coded collective
  /// cannot join a reliability region's runtime-lowered body, and it speaks
  /// only MPI two-sided (retarget via the embedded API for SHMEM).
  Status collective_lowerable(const DirectiveNode& node,
                              const RegionContext* region) const {
    if (region != nullptr && region->reliable) {
      return Status(ErrorCode::InvalidClause,
                    "comm_collective inside a reliability region is not "
                    "supported (reliability covers point-to-point transfers)");
    }
    if (directive_target(node.resolved) != Target::Mpi2Side) {
      return Status(ErrorCode::UnsupportedTarget,
                    "translated comm_collective supports only "
                    "TARGET_COMM_MPI_2SIDE; use the embedded API for other "
                    "targets");
    }
    return Status::ok();
  }

  /// The collective-directive extension (paper Section V): lowered to the
  /// cid::mpi collectives on a group communicator.
  std::string emit_collective(const DirectiveNode& node) {
    ++summary_.p2p_directives;  // counted with the point-to-point directives
    const int id = next_id_++;

    const ParsedDirective& merged = node.resolved;
    const std::string pattern = clause_arg(merged, "pattern");
    const auto sbufs = clause_args(merged, "sbuf");
    const auto rbufs = clause_args(merged, "rbuf");
    const std::string count = clause_arg(merged, "count");
    const std::string root = clause_arg(merged, "root", "0");
    const std::string group = clause_arg(merged, "group");
    const std::string& sb = sbufs[0];
    const std::string& rb = rbufs[0];

    const std::string comm_var = "cid_gcomm_" + std::to_string(id);
    std::string out;
    out += "{ " + annotate("comm_collective " + std::to_string(id)) + "\n";
    if (group.empty()) {
      out += "auto " + comm_var + " = " + options_.comm_expr + ";\n";
      out += "{\n";
    } else {
      out += "auto " + comm_var + " = " + options_.comm_expr + ".split((" +
             group + ") < 0 ? -1 : static_cast<int>(" + group +
             "), ::cid::rt::current_ctx().rank());\n";
      out += "if (" + comm_var + ".valid()) {\n";
    }

    if (pattern == "PATTERN_ONE_TO_MANY") {
      out += "if (" + comm_var + ".rank() == (" + root +
             ")) ::cid::trt::copy_block(" + rb + ", " + sb +
             ", static_cast<std::size_t>(" + count + "));\n";
      out += "::cid::mpi::bcast(" + comm_var + ", ::cid::trt::data_ptr(" +
             rb + "), static_cast<std::size_t>(" + count +
             "), ::cid::trt::datatype_of_expr(" + rb + "), (" + root +
             "));\n";
    } else if (pattern == "PATTERN_MANY_TO_ONE") {
      out += "::cid::mpi::gather(" + comm_var + ", ::cid::trt::data_ptr(" +
             sb + "), static_cast<std::size_t>(" + count +
             "), ::cid::trt::datatype_of_expr(" + sb + "), " + comm_var +
             ".rank() == (" + root +
             ") ? static_cast<void*>(::cid::trt::data_ptr(" + rb +
             ")) : nullptr, (" + root + "));\n";
    } else {  // PATTERN_ALL_TO_ALL
      out += "::cid::mpi::alltoall(" + comm_var + ", ::cid::trt::data_ptr(" +
             sb + "), static_cast<std::size_t>(" + count +
             "), ::cid::trt::datatype_of_expr(" + sb +
             "), ::cid::trt::data_ptr(" + rb + "));\n";
    }
    out += "}\n";

    const std::string body = body_text(node);
    if (!cid::trim(body).empty()) {
      out += "{ " + annotate("post-collective statement") + "\n" + body +
             "\n}\n";
    }
    out += "}\n";
    return out;
  }

  std::string emit_p2p(const DirectiveNode& node, RegionContext* region) {
    ++summary_.p2p_directives;
    const int id = next_id_++;

    const ParsedDirective& merged = node.resolved;
    const auto sbufs = clause_args(merged, "sbuf");
    const auto rbufs = clause_args(merged, "rbuf");
    const std::string sender = clause_arg(merged, "sender");
    const std::string receiver = clause_arg(merged, "receiver");
    const std::string sendwhen = clause_arg(merged, "sendwhen");
    const std::string receivewhen = clause_arg(merged, "receivewhen");
    std::string count = clause_arg(merged, "count");
    if (count.empty()) {
      // Count inference from array extents, resolved in the generated code.
      std::string args;
      for (const auto& name : sbufs) {
        if (!args.empty()) args += ", ";
        args += name;
      }
      for (const auto& name : rbufs) {
        args += ", ";
        args += name;
      }
      count = "::cid::trt::smallest_extent(" + args + ")";
    }
    const Target target = directive_target(merged);

    const std::string overlap = body_text(node);
    const bool has_overlap = !cid::trim(overlap).empty();
    const std::string tag = std::to_string(options_.tag);

    if (region != nullptr && region->reliable) {
      // Inside a reliable region the runtime executes the directive (and its
      // retransmission protocol); emit a Region::p2p call with the site's
      // own clauses — inheritance happens in the runtime, like the paper's
      // region-scoped assertions.
      std::string out = annotate("comm_p2p " + std::to_string(id) +
                                 " (reliable region)") + "\n";
      out += region->region_var + ".p2p(" + clauses_builder(node.directive);
      if (has_overlap) {
        out += ",\n    [&]() { " + annotate("overlapped computation") + "\n" +
               overlap + "\n}";
      }
      out += ");\n";
      return out;
    }

    std::string out;
    out += "{ " + annotate("comm_p2p " + std::to_string(id)) + "\n";

    std::string reqs_var;
    std::string comm_var;
    const bool standalone = region == nullptr;
    switch (target) {
      case Target::Auto:  // directive_target resolves Auto to the default
      case Target::Mpi2Side: {
        if (standalone) {
          reqs_var = "cid_reqs_" + std::to_string(id);
          comm_var = "cid_comm_" + std::to_string(id);
          out += "std::vector<::cid::mpi::Request> " + reqs_var + ";\n";
          out += "auto " + comm_var + " = " + options_.comm_expr + ";\n";
        } else {
          reqs_var = region->requests_var;
          comm_var = region->comm_var;
          region->used_mpi2 = true;
        }
        const std::string indent = "  ";
        std::string recv_code;
        for (const auto& rb : rbufs) {
          recv_code += indent + reqs_var + ".push_back(::cid::mpi::irecv(" +
                       comm_var + ", ::cid::trt::data_ptr(" + rb +
                       "), static_cast<std::size_t>(" + count +
                       "), ::cid::trt::datatype_of_expr(" + rb + "), (" +
                       sender + "), " + tag + "));\n";
        }
        std::string send_code;
        for (const auto& sb : sbufs) {
          send_code += indent + reqs_var + ".push_back(::cid::mpi::isend(" +
                       comm_var + ", ::cid::trt::data_ptr(" + sb +
                       "), static_cast<std::size_t>(" + count +
                       "), ::cid::trt::datatype_of_expr(" + sb + "), (" +
                       receiver + "), " + tag + "));\n";
        }
        if (!receivewhen.empty()) {
          out += "if (" + receivewhen + ") {\n" + recv_code + "}\n";
        } else {
          out += recv_code;
        }
        if (!sendwhen.empty()) {
          out += "if (" + sendwhen + ") {\n" + send_code + "}\n";
        } else {
          out += send_code;
        }
        break;
      }

      case Target::Shmem: {
        std::string put_code;
        for (std::size_t b = 0; b < sbufs.size(); ++b) {
          put_code += "  ::cid::shmem::putmem(::cid::trt::data_ptr(" +
                      rbufs[b] + "), ::cid::trt::data_ptr(" + sbufs[b] +
                      "), static_cast<std::size_t>(" + count +
                      ") * ::cid::trt::element_size(" + sbufs[b] + "), (" +
                      receiver + "));\n";
        }
        if (!sendwhen.empty()) {
          out += "if (" + sendwhen + ") {\n" + put_code + "}\n";
        } else {
          out += put_code;
        }
        if (region != nullptr) region->used_shmem = true;
        break;
      }

      case Target::Mpi1Side: {
        comm_var = standalone ? "cid_comm_" + std::to_string(id)
                              : region->comm_var;
        if (standalone) {
          out += "auto " + comm_var + " = " + options_.comm_expr + ";\n";
        } else {
          region_needs_comm_ = true;
        }
        for (std::size_t b = 0; b < rbufs.size(); ++b) {
          const std::string win_var =
              "cid_win_" + std::to_string(id) + "_" + std::to_string(b);
          out += "auto " + win_var + " = ::cid::mpi::Win::create(" + comm_var +
                 ", ::cid::trt::data_ptr(" + rbufs[b] +
                 "), static_cast<std::size_t>(" + count +
                 ") * ::cid::trt::element_size(" + rbufs[b] + "));\n";
          std::string put_code = "  " + win_var +
                                 ".put(::cid::trt::data_ptr(" + sbufs[b] +
                                 "), static_cast<std::size_t>(" + count +
                                 "), ::cid::trt::datatype_of_expr(" +
                                 sbufs[b] + "), (" + receiver + "), 0);\n";
          if (!sendwhen.empty()) {
            out += "if (" + sendwhen + ") {\n" + put_code + "}\n";
          } else {
            out += put_code;
          }
          window_fences_.push_back(win_var);
        }
        break;
      }
    }

    if (has_overlap) {
      out += "{ " + annotate("overlapped computation") + "\n";
      out += overlap;
      out += "\n}\n";
    }

    // Standalone directive (or one-sided windows): synchronize here.
    if (target == Target::Mpi1Side) {
      for (const auto& win_var : window_fences_) {
        out += win_var + ".fence();\n";
      }
      window_fences_.clear();
    }
    if (standalone) {
      switch (target) {
        case Target::Auto:
        case Target::Mpi2Side:
          out += "::cid::mpi::waitall(" + reqs_var + ");\n";
          break;
        case Target::Shmem:
          out += "::cid::shmem::barrier_all();\n";
          break;
        case Target::Mpi1Side:
          break;  // fences above
      }
    }
    out += "}\n";
    return out;
  }

  std::string_view source_;
  Options options_;
  Summary summary_;
  int next_id_ = 1;
  std::vector<DeferredSync> deferred_syncs_;
  std::vector<std::string> window_fences_;
  bool region_needs_comm_ = false;
};

}  // namespace

Result<Translation> translate_source(std::string_view source,
                                     const Options& options) {
  return Translator(source, options).run();
}

}  // namespace cid::translate
