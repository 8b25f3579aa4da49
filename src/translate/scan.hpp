// The one directive model of annotated source, shared by the translator,
// the static analyzer (cid::analyze) and the schedule-space explorer
// (cid::explore).
//
// scan_directives() builds the lexical region tree every front end walks:
// each #pragma comm_* in live code, parsed, with its source location, its
// attached-body extent, its nesting, and its clauses with inheritance from
// the enclosing comm_parameters regions already resolved. Pragma text in
// comments and string literals is not a directive, and a comment on a pragma
// line is not part of it. Only a comm_parameters region may enclose
// directives: one inside a comm_p2p or comm_collective body is a scan issue.
// Malformed pragmas, structural problems (missing body, unbalanced braces,
// unterminated continuations) and broken static clause rules (checked on each
// node's resolved clauses, core::clause_rule_violations) are reported as
// ScanIssues instead of aborting the scan, so one bad directive does not hide
// the rest of the file.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/pragma.hpp"

namespace cid::translate {

// --- character-level helpers ------------------------------------------------

/// Position of the matching '}' for the '{' at `open`, skipping string and
/// character literals and // and /* */ comments. npos when unbalanced.
std::size_t find_block_end(std::string_view text, std::size_t open);

/// 1-based line number of `pos`.
int line_of(std::string_view text, std::size_t pos);

/// 1-based column number of `pos`.
int column_of(std::string_view text, std::size_t pos);

/// Byte mask over `text`: 1 where the byte is live code, 0 inside comments,
/// string literals (including raw strings) and character literals. Used to
/// ignore pragma text quoted in strings and to scan identifier references.
std::vector<unsigned char> code_mask(std::string_view text);

// --- the directive tree -----------------------------------------------------

/// One directive with its attached body, nested inside the tree of
/// comm_parameters regions.
struct DirectiveNode {
  /// The site's own clauses, as written (clause offsets map to columns).
  core::ParsedDirective directive;
  /// `directive` layered over the enclosing region's `resolved` clauses:
  /// clauses present on the site win, absent ones inherit — the static
  /// counterpart of core::Clauses::merged. Keeps the site's kind.
  core::ParsedDirective resolved;
  int line = 0;    ///< 1-based line of the pragma's '#'
  int column = 0;  ///< 1-based column of the pragma's '#'
  std::size_t pragma_begin = 0;  ///< offset of the '#'
  std::size_t body_begin = 0;    ///< content offset (inside braces, or the
                                 ///< statement / nested-directive start)
  std::size_t body_end = 0;      ///< content end (exclusive)
  std::size_t node_end = 0;      ///< offset just past the whole construct
  bool body_is_block = false;
  bool pragma_continued = false;  ///< pragma spanned '\'-continued lines
  /// The resolved clauses break a static clause rule (reported as a scan
  /// issue here or, when the enclosing region breaks it the same way, there).
  bool rejected = false;
  /// Directives nested in the body; only a comm_parameters region has any.
  std::vector<DirectiveNode> children;
};

/// Column of a clause of `node.resolved` within its pragma: the pragma's own
/// column for a clause inherited from an enclosing region or written on a
/// '\'-continued pragma, where joined offsets do not map back.
int clause_column(const DirectiveNode& node, const core::RawClause& clause);

/// `status` as a front-end error about line `line`: "line N: <message>".
Status at_line(int line, const Status& status);

/// A problem found while scanning: a malformed pragma line (CID-P001), a
/// structural error around a directive (CID-P002), a '\' continuation
/// running off the end of the input (CID-P004), or a broken static clause
/// rule under its own id (CID-P005, CID-P006, CID-S032, CID-S035). `status`
/// carries the message.
struct ScanIssue {
  const char* id = "CID-P001";
  int line = 0;
  int column = 0;
  Status status;

  /// The issue as a front-end error: "line N: <message>", same code.
  Status located() const { return at_line(line, status); }
};

struct DirectiveTree {
  std::vector<DirectiveNode> roots;
  std::vector<ScanIssue> issues;
  std::vector<unsigned char> mask;  ///< code_mask() of the scanned source
};

/// Scan a whole source buffer into its directive tree. Never fails: problems
/// are reported through `issues`; a directive that does not parse or has no
/// body is skipped, one that breaks a clause rule is kept and `rejected`.
DirectiveTree scan_directives(std::string_view source);

}  // namespace cid::translate
