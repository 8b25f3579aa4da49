// Textual form of the directives:
//   #pragma comm_parameters sender(rank-1) receiver(rank+1) ...
//   #pragma comm_p2p sbuf(buf1) rbuf(buf2) count(n)
//
// parse_pragma() produces the structural representation that the directive
// scanner (translate/scan.hpp) builds its tree from, for the translator, the
// analyzer and the explorer. The clause table behind it (kClauseRules in
// pragma.cpp) also carries the static clause rules of clauses.hpp.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/clauses.hpp"

namespace cid::core {

struct RawClause {
  std::string name;
  std::vector<std::string> args;  ///< top-level comma-split, trimmed
  /// Byte offset of the clause name within the text given to parse_pragma
  /// (continuation lines already joined) — lets diagnostics point at the
  /// clause instead of the start of the pragma.
  std::size_t offset = 0;
};

struct ParsedDirective {
  DirectiveKind kind = DirectiveKind::CommP2P;
  std::vector<RawClause> clauses;

  /// First clause with the given name, or nullptr.
  const RawClause* find(std::string_view name) const noexcept;

  /// The clauses present, for the static rules; keeps a pointer to this
  /// directive for the keyword checks.
  ClauseFacts facts() const;
};

/// Parse one pragma line (continuation lines already joined). Accepts both
/// "#pragma comm_p2p ..." and the bare "comm_p2p ..." form. Validates clause
/// names, arity and duplicates, and the written-clause rules.
Result<ParsedDirective> parse_pragma(std::string_view line);

}  // namespace cid::core
