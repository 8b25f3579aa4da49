// The one directive model of annotated source, shared by the translator,
// the static analyzer (cid::analyze) and the schedule-space explorer
// (cid::explore).
//
// scan_directives() builds the lexical region tree every front end walks:
// each #pragma comm_* in live code, parsed, with its source location, its
// attached-body extent, its nesting, and its clauses with inheritance from
// the enclosing comm_parameters regions already resolved. Pragma text in
// comments and string literals is not a directive. Only a comm_parameters
// region may enclose directives: one inside a comm_p2p or comm_collective
// body is a scan issue. Malformed pragmas and structural problems (missing
// body, unbalanced braces, unterminated continuations) are reported as
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
  /// Directives nested in the body; only a comm_parameters region has any.
  std::vector<DirectiveNode> children;
};

/// A problem found while scanning: a malformed pragma line (CID-P001), a
/// structural error around a directive (CID-P002) or a '\' continuation
/// running off the end of the input (CID-P004). `status` carries the message.
struct ScanIssue {
  const char* id = "CID-P001";
  int line = 0;
  int column = 0;
  Status status;

  /// The issue as a front-end error: "line N: <message>", same code.
  Status located() const {
    return Status(status.code(),
                  "line " + std::to_string(line) + ": " + status.message());
  }
};

struct DirectiveTree {
  std::vector<DirectiveNode> roots;
  std::vector<ScanIssue> issues;
  std::vector<unsigned char> mask;  ///< code_mask() of the scanned source
};

/// Scan a whole source buffer into its directive tree. Never fails: problems
/// are reported through `issues` and the affected directive is skipped.
DirectiveTree scan_directives(std::string_view source);

}  // namespace cid::translate
