#include "translate/scan.hpp"

#include <algorithm>
#include <cctype>

#include "common/strings.hpp"

namespace cid::translate {

namespace {

/// Lexical state shared by the extent finders.
enum class LexState { Code, LineComment, BlockComment, String, Char };

/// Advance one character of the comment/literal state machine. Returns the
/// number of extra characters consumed (0 or 1).
std::size_t step(std::string_view text, std::size_t i, LexState& state) {
  const char c = text[i];
  const char next = i + 1 < text.size() ? text[i + 1] : '\0';
  switch (state) {
    case LexState::Code:
      if (c == '/' && next == '/') {
        state = LexState::LineComment;
        return 1;
      }
      if (c == '/' && next == '*') {
        state = LexState::BlockComment;
        return 1;
      }
      if (c == '"') state = LexState::String;
      if (c == '\'') state = LexState::Char;
      return 0;
    case LexState::LineComment:
      if (c == '\n') state = LexState::Code;
      return 0;
    case LexState::BlockComment:
      if (c == '*' && next == '/') {
        state = LexState::Code;
        return 1;
      }
      return 0;
    case LexState::String:
      if (c == '\\') return 1;
      if (c == '"') state = LexState::Code;
      return 0;
    case LexState::Char:
      if (c == '\\') return 1;
      if (c == '\'') state = LexState::Code;
      return 0;
  }
  return 0;
}

}  // namespace

std::size_t find_block_end(std::string_view text, std::size_t open) {
  int depth = 0;
  LexState state = LexState::Code;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (state == LexState::Code) {
      const char c = text[i];
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) return i;
      }
    }
    i += step(text, i, state);
  }
  return std::string_view::npos;
}

namespace {

/// Position just past the ';' terminating the statement starting at `start`
/// (same literal/comment skipping as find_block_end). npos when not found.
std::size_t find_statement_end(std::string_view text, std::size_t start) {
  LexState state = LexState::Code;
  int parens = 0;
  for (std::size_t i = start; i < text.size(); ++i) {
    if (state == LexState::Code) {
      const char c = text[i];
      if (c == '(') {
        ++parens;
      } else if (c == ')') {
        --parens;
      } else if (c == ';' && parens == 0) {
        return i + 1;
      }
    }
    i += step(text, i, state);
  }
  return std::string_view::npos;
}

}  // namespace

int line_of(std::string_view text, std::size_t pos) {
  int line = 1;
  for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

int column_of(std::string_view text, std::size_t pos) {
  int column = 1;
  for (std::size_t i = pos; i > 0 && text[i - 1] != '\n'; --i) ++column;
  return column;
}

namespace {

/// Is there a comm directive pragma starting at the beginning of the line
/// containing position `i`? (`i` must point at the '#'.)
bool is_pragma_start(std::string_view text, std::size_t i) {
  // i must point at '#' that begins (after whitespace) a line.
  std::size_t j = i;
  while (j > 0 && (text[j - 1] == ' ' || text[j - 1] == '\t')) --j;
  if (j != 0 && text[j - 1] != '\n') return false;
  std::string_view rest = text.substr(i);
  if (!cid::starts_with(rest, "#")) return false;
  rest = cid::trim(rest.substr(1, 64));
  return cid::starts_with(rest, "pragma comm_parameters") ||
         cid::starts_with(rest, "pragma comm_p2p") ||
         cid::starts_with(rest, "pragma comm_collective");
}

}  // namespace

std::vector<unsigned char> code_mask(std::string_view text) {
  std::vector<unsigned char> mask(text.size(), 0);
  LexState state = LexState::Code;
  for (std::size_t i = 0; i < text.size(); ++i) {
    // Raw string literals need lookahead the LexState machine does not have:
    // R"delim( ... )delim" with no escape processing.
    if (state == LexState::Code && text[i] == 'R' && i + 1 < text.size() &&
        text[i + 1] == '"' &&
        (i == 0 || (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                    text[i - 1] != '_'))) {
      std::size_t delim_end = i + 2;
      while (delim_end < text.size() && text[delim_end] != '(' &&
             text[delim_end] != '"' && text[delim_end] != '\n') {
        ++delim_end;
      }
      if (delim_end < text.size() && text[delim_end] == '(') {
        const std::string closer =
            ")" + std::string(text.substr(i + 2, delim_end - (i + 2))) + "\"";
        const std::size_t close = text.find(closer, delim_end + 1);
        const std::size_t stop = close == std::string_view::npos
                                     ? text.size()
                                     : close + closer.size();
        i = stop - 1;  // literal bytes stay masked out
        continue;
      }
    }
    const LexState before = state;
    const std::size_t extra = step(text, i, state);
    // A byte is code when it is outside comments/literals both before and
    // after the step (so quotes and comment openers are not marked live).
    if (before == LexState::Code && state == LexState::Code) mask[i] = 1;
    i += extra;
  }
  return mask;
}

int clause_column(const DirectiveNode& node, const core::RawClause& clause) {
  // Clause offsets index the joined pragma text; for single-line pragmas
  // that text starts at the '#', so the offset maps straight to a column.
  if (node.pragma_continued) return node.column;
  const core::RawClause* own = node.directive.find(clause.name);
  if (own == nullptr || own->offset != clause.offset) return node.column;
  return node.column + static_cast<int>(clause.offset);
}

Status at_line(int line, const Status& status) {
  return Status(status.code(),
                "line " + std::to_string(line) + ": " + status.message());
}

namespace {

/// The static clause rules a node's resolved clauses break: the shared rule
/// set, plus the translated collective's need for an explicit count.
std::vector<core::RuleViolation> rule_violations(
    const core::ParsedDirective& resolved) {
  std::vector<core::RuleViolation> broken = core::clause_rule_violations(
      resolved.kind, resolved.facts(), core::RuleStage::Resolved);
  if (broken.empty() && resolved.kind == core::DirectiveKind::CommCollective &&
      resolved.find("count") == nullptr) {
    broken.push_back({"CID-P005", std::nullopt,
                      Status(ErrorCode::InvalidClause,
                             "comm_collective is missing required clause(s) "
                             "after inheritance: count")});
  }
  return broken;
}

/// Textual clause inheritance: `inner`'s clauses layered over `outer`'s.
core::ParsedDirective merge_directives(const core::ParsedDirective& outer,
                                       const core::ParsedDirective& inner) {
  core::ParsedDirective merged;
  merged.kind = inner.kind;
  for (const auto& clause : outer.clauses) {
    if (inner.find(clause.name) == nullptr) merged.clauses.push_back(clause);
  }
  for (const auto& clause : inner.clauses) merged.clauses.push_back(clause);
  return merged;
}

class Scanner {
 public:
  explicit Scanner(std::string_view source) : source_(source) {
    tree_.mask = code_mask(source);
  }

  DirectiveTree run() && {
    scan_range(0, source_.size(), tree_.roots, nullptr);
    return std::move(tree_);
  }

 private:
  /// A directive starts at `i`: a '#' in live code opening a comm pragma.
  bool directive_at(std::size_t i) const {
    return source_[i] == '#' && tree_.mask[i] != 0 &&
           is_pragma_start(source_, i);
  }

  void add_issue(const char* id, std::size_t pos, Status status) {
    tree_.issues.push_back(
        {id, line_of(source_, pos), column_of(source_, pos), std::move(status)});
  }

  void add_structural(std::size_t pos, std::string message) {
    add_issue("CID-P002", pos,
              Status(ErrorCode::ParseError, std::move(message)));
  }

  /// Check `node`'s resolved clauses against the static rules. A rule the
  /// enclosing region breaks the same way is reported once, at the region.
  void check_rules(DirectiveNode& node, const DirectiveNode* enclosing) {
    std::vector<core::RuleViolation> broken = rule_violations(node.resolved);
    if (broken.empty()) return;
    node.rejected = true;
    const std::vector<core::RuleViolation> inherited =
        enclosing != nullptr && enclosing->rejected
            ? rule_violations(enclosing->resolved)
            : std::vector<core::RuleViolation>{};
    for (core::RuleViolation& rule : broken) {
      const bool reported = std::any_of(
          inherited.begin(), inherited.end(), [&rule](const auto& outer) {
            return outer.status.message() == rule.status.message();
          });
      if (reported) continue;
      const int column =
          rule.clause.has_value()
              ? clause_column(node, *node.resolved.find(
                                        core::clause_name(*rule.clause)))
              : node.column;
      tree_.issues.push_back(
          {rule.id, node.line, column, std::move(rule.status)});
    }
  }

  /// source_[begin, end) with each comment blanked: a run of non-code bytes
  /// that opens with "//" or "/*" (string literals are kept).
  std::string without_comments(std::size_t begin, std::size_t end) const {
    std::string text(source_.substr(begin, end - begin));
    for (std::size_t i = begin; i < end; ++i) {
      if (tree_.mask[i] != 0 || (i > begin && tree_.mask[i - 1] == 0)) continue;
      const bool comment = source_[i] == '/' && i + 1 < source_.size() &&
                           (source_[i + 1] == '/' || source_[i + 1] == '*');
      for (std::size_t j = i; j < end && tree_.mask[j] == 0; ++j) {
        if (comment) text[j - begin] = ' ';
      }
    }
    return text;
  }

  /// Collect the pragma line starting at `i` (joining backslash
  /// continuations); sets `cursor` just past it. Returns false (with an
  /// issue) when a continuation runs off the end of the range.
  bool collect_pragma(std::size_t i, std::size_t end, std::string& text,
                      std::size_t& cursor, bool& continued) {
    cursor = i;
    text.clear();
    continued = false;
    for (;;) {
      std::size_t eol = source_.find('\n', cursor);
      if (eol == std::string_view::npos || eol > end) eol = end;
      const std::string line = without_comments(cursor, eol);
      const bool at_end = eol >= end;
      cursor = at_end ? end : eol + 1;
      std::string_view trimmed = cid::trim(line);
      if (!trimmed.empty() && trimmed.back() == '\\') {
        text += trimmed.substr(0, trimmed.size() - 1);
        text += ' ';
        continued = true;
        if (at_end) {
          add_issue("CID-P004", i,
                    Status(ErrorCode::ParseError,
                           "unterminated '\\' continuation in pragma"));
          return false;
        }
      } else {
        text += trimmed;
        return true;
      }
    }
  }

  /// Scan every directive in [begin, end) into `nodes`; `enclosing` is the
  /// innermost enclosing directive (nullptr at top level).
  void scan_range(std::size_t begin, std::size_t end,
                  std::vector<DirectiveNode>& nodes,
                  const DirectiveNode* enclosing) {
    std::size_t i = begin;
    while (i < end) {
      if (directive_at(i)) {
        i = scan_directive(i, end, nodes, enclosing);
        continue;
      }
      ++i;
    }
  }

  /// Scan the directive at `i`; append a node (or an issue) and return the
  /// position to continue from.
  std::size_t scan_directive(std::size_t i, std::size_t end,
                             std::vector<DirectiveNode>& nodes,
                             const DirectiveNode* enclosing) {
    std::string pragma_text;
    std::size_t cursor = 0;
    bool continued = false;
    if (!collect_pragma(i, end, pragma_text, cursor, continued)) return end;

    auto parsed = core::parse_pragma(pragma_text);
    if (!parsed.is_ok()) {
      add_issue("CID-P001", i, parsed.status());
      return cursor;  // keep scanning after the bad pragma line
    }

    DirectiveNode node;
    node.directive = std::move(parsed).take();
    node.resolved = enclosing != nullptr
                        ? merge_directives(enclosing->resolved, node.directive)
                        : node.directive;
    node.pragma_continued = continued;
    node.line = line_of(source_, i);
    node.column = column_of(source_, i);
    node.pragma_begin = i;
    check_rules(node, enclosing);
    const bool region =
        node.directive.kind == core::DirectiveKind::CommParameters;

    // Locate the attached statement or block.
    std::size_t body_begin = cursor;
    while (body_begin < end &&
           std::isspace(static_cast<unsigned char>(source_[body_begin]))) {
      ++body_begin;
    }
    if (body_begin >= end) {
      add_structural(i, "directive has no attached statement or block");
      return end;
    }

    if (source_[body_begin] == '{') {
      const std::size_t close = find_block_end(
          source_.substr(0, end), body_begin);
      if (close == std::string_view::npos) {
        add_structural(body_begin, "unbalanced braces after directive");
        return end;
      }
      node.body_is_block = true;
      node.body_begin = body_begin + 1;
      node.body_end = close;
      node.node_end = close + 1;
    } else if (region && directive_at(body_begin)) {
      // A comm_parameters followed directly by another directive: the inner
      // directive (with its block) is the region body.
      std::vector<DirectiveNode> inner;
      const std::size_t before = tree_.issues.size();
      const std::size_t after =
          scan_directive(body_begin, end, inner, &node);
      if (inner.empty()) {
        // The nested directive failed to scan; its issue is already recorded.
        if (tree_.issues.size() == before) {
          add_structural(body_begin,
                         "directive has no attached statement or block");
        }
        return after;
      }
      node.body_begin = body_begin;
      node.body_end = after;
      node.node_end = after;
      node.children = std::move(inner);
      nodes.push_back(std::move(node));
      return after;
    } else {
      const std::size_t semi =
          find_statement_end(source_.substr(0, end), body_begin);
      if (semi == std::string_view::npos) {
        add_structural(body_begin, "directive statement is not terminated");
        return end;
      }
      node.body_begin = body_begin;
      node.body_end = semi;
      node.node_end = semi;
    }

    if (region) {
      scan_range(node.body_begin, node.body_end, node.children, &node);
    } else {
      // The body of a comm_p2p is its overlapped computation and that of a
      // comm_collective its post-collective statement: plain code, never
      // communication. A directive there is rejected, not lowered.
      std::vector<DirectiveNode> nested;
      scan_range(node.body_begin, node.body_end, nested, &node);
      for (const DirectiveNode& inner : nested) {
        add_structural(inner.pragma_begin,
                       "directive nested inside a " +
                           std::string(core::directive_name(
                               node.directive.kind)) +
                           " body; only a comm_parameters region may "
                           "enclose directives");
      }
    }
    const std::size_t node_end = node.node_end;
    nodes.push_back(std::move(node));
    return node_end;
  }

  std::string_view source_;
  DirectiveTree tree_;
};

}  // namespace

DirectiveTree scan_directives(std::string_view source) {
  return Scanner(source).run();
}

}  // namespace cid::translate
