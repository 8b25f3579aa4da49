#include "core/pragma.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "common/strings.hpp"

namespace cid::core {

namespace {

constexpr unsigned kParams = 1u << static_cast<unsigned>(
                                 DirectiveKind::CommParameters);
constexpr unsigned kP2P = 1u << static_cast<unsigned>(DirectiveKind::CommP2P);
constexpr unsigned kCollective =
    1u << static_cast<unsigned>(DirectiveKind::CommCollective);
constexpr unsigned kAnyKind = kParams | kP2P | kCollective;

/// One clause of the grammar and its static rules.
struct ClauseRule {
  std::string_view name;
  std::size_t min_args;
  std::size_t max_args;
  unsigned written_on;   ///< directive kinds the clause may be written on
  unsigned required_on;  ///< directive kinds that need it after inheritance
  /// The clause that must be present exactly when this one is.
  std::optional<ClauseName> pair;
  /// The argument's keyword set; empty when it is an expression or buffers.
  std::span<const std::string_view> keywords;
};

/// Indexed by ClauseName. docs/DIRECTIVES.md §2 mirrors this table.
constexpr std::array<ClauseRule, 14> kClauseRules = {{
    {"sender", 1, 1, kParams | kP2P, kP2P, {}, {}},
    {"receiver", 1, 1, kParams | kP2P, kP2P, {}, {}},
    {"sbuf", 1, SIZE_MAX, kAnyKind, kP2P | kCollective, {}, {}},
    {"rbuf", 1, SIZE_MAX, kAnyKind, kP2P | kCollective, {}, {}},
    {"sendwhen", 1, 1, kParams | kP2P, 0, ClauseName::Receivewhen, {}},
    {"receivewhen", 1, 1, kParams | kP2P, 0, {}, {}},
    {"target", 1, 1, kAnyKind, 0, {}, kTargetKeywords},
    {"count", 1, 1, kAnyKind, 0, {}, {}},
    {"place_sync", 1, 1, kParams, 0, {}, kSyncPlacementKeywords},
    {"max_comm_iter", 1, 1, kParams, 0, {}, {}},
    {"reliability", 2, 2, kParams, 0, {}, {}},
    // comm_collective extension (paper Section V future work):
    {"pattern", 1, 1, kCollective, kCollective, {}, kPatternKeywords},
    {"root", 1, 1, kCollective, 0, {}, {}},
    {"group", 1, 1, kCollective, 0, {}, {}},
}};

static_assert(kClauseRules.size() ==
              static_cast<std::size_t>(ClauseName::Group) + 1);

std::optional<ClauseName> find_clause(std::string_view name) {
  for (std::size_t i = 0; i < kClauseRules.size(); ++i) {
    if (kClauseRules[i].name == name) return static_cast<ClauseName>(i);
  }
  return std::nullopt;
}

constexpr detail::RuleMasks make_rule_masks() {
  detail::RuleMasks masks;
  for (std::size_t i = 0; i < kClauseRules.size(); ++i) {
    const ClauseRule& rule = kClauseRules[i];
    const std::uint32_t bit = 1u << i;
    for (unsigned kind = 0; kind < 3; ++kind) {
      if ((rule.written_on >> kind & 1u) != 0) masks.written_on[kind] |= bit;
      if ((rule.required_on >> kind & 1u) == 0) continue;
      masks.required[1][kind] |= bit;
      if ((rule.written_on & kParams) == 0) masks.required[0][kind] |= bit;
    }
    if (rule.pair.has_value()) {
      masks.paired |= bit | 1u << static_cast<unsigned>(*rule.pair);
    }
  }
  return masks;
}

/// Indexed by DirectiveKind.
constexpr std::array<std::string_view, 3> kDirectiveNames = {
    "comm_parameters", "comm_p2p", "comm_collective"};

/// "comm_parameters or comm_p2p" for a kind mask.
std::string kinds_text(unsigned kinds) {
  std::string out;
  for (std::size_t kind = 0; kind < kDirectiveNames.size(); ++kind) {
    if ((kinds >> kind & 1u) == 0) continue;
    out += (out.empty() ? "" : " or ") + std::string(kDirectiveNames[kind]);
  }
  return out;
}

/// The keyword of `name` in `text` when it is not one of the clause's
/// keywords; null when the keyword is known (or the clause has none).
const std::string* unknown_keyword(const ParsedDirective& text,
                                   const ClauseRule& rule) {
  const RawClause* clause = text.find(rule.name);
  if (clause == nullptr || rule.keywords.empty()) return nullptr;
  const std::string& keyword = clause->args[0];
  return std::find(rule.keywords.begin(), rule.keywords.end(), keyword) ==
                 rule.keywords.end()
             ? &keyword
             : nullptr;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::string_view clause_name(ClauseName name) noexcept {
  return kClauseRules[static_cast<std::size_t>(name)].name;
}

namespace detail {

constinit const RuleMasks kRuleMasks = make_rule_masks();

bool any_unknown_keyword(const ParsedDirective& text) {
  return std::any_of(kClauseRules.begin(), kClauseRules.end(),
                     [&text](const ClauseRule& rule) {
                       return unknown_keyword(text, rule) != nullptr;
                     });
}

}  // namespace detail

std::vector<RuleViolation> clause_rule_violations(DirectiveKind kind,
                                                  const ClauseFacts& facts,
                                                  RuleStage stage) {
  const detail::Breaks breaks = detail::breaks_of(kind, facts, stage);
  std::vector<RuleViolation> out;
  if (!breaks.any()) return out;

  const auto broken = [&out](const char* id, std::optional<ClauseName> clause,
                             std::string message) {
    out.push_back(
        {id, clause, Status(ErrorCode::InvalidClause, std::move(message))});
  };
  std::string missing_names;
  for (std::size_t i = 0; i < kClauseRules.size(); ++i) {
    const ClauseRule& rule = kClauseRules[i];
    const auto name = static_cast<ClauseName>(i);
    if ((breaks.misplaced >> i & 1u) != 0) {
      broken("CID-P001", name,
             std::string(rule.name) + " may only be used with " +
                 kinds_text(rule.written_on));
    }
    if (breaks.unpaired && rule.pair.has_value()) {
      broken("CID-P001", name,
             std::string(rule.name) + " and " +
                 std::string(clause_name(*rule.pair)) +
                 " must both be present or both be omitted");
    }
    if (const std::string* keyword =
            breaks.unknown_keywords ? unknown_keyword(*facts.text, rule)
                                    : nullptr) {
      broken("CID-S032", name,
             std::string(rule.name) + "(" + *keyword + "): unknown " +
                 std::string(rule.name) + " keyword '" + *keyword + "'");
    }
    if ((breaks.missing >> i & 1u) != 0) {
      if (!missing_names.empty()) missing_names += ", ";
      missing_names += rule.name;
    }
  }
  if (breaks.missing != 0) {
    broken("CID-P005", std::nullopt,
           std::string(directive_name(kind)) +
               " is missing required clause(s) after inheritance: " +
               missing_names);
  }
  if (breaks.bad_counts) {
    broken("CID-P006", std::nullopt,
           kind == DirectiveKind::CommCollective
               ? std::string(
                     "comm_collective takes exactly one sbuf and one rbuf")
               : "sbuf lists " + std::to_string(facts.sbufs) +
                     " buffer(s) but rbuf lists " +
                     std::to_string(facts.rbufs) +
                     "; paired send/receive buffers must agree in number");
  }
  if (breaks.unreliable_target) {
    broken("CID-S035", ClauseName::Reliability,
           "reliability requires TARGET_COMM_MPI_2SIDE, but the directive "
           "targets " +
               std::string(target_keyword(facts.target)));
  }
  return out;
}

std::string_view directive_name(DirectiveKind kind) noexcept {
  return kDirectiveNames[static_cast<std::size_t>(kind)];
}

const RawClause* ParsedDirective::find(std::string_view name) const noexcept {
  for (const auto& clause : clauses) {
    if (clause.name == name) return &clause;
  }
  return nullptr;
}

ClauseFacts ParsedDirective::facts() const {
  ClauseFacts facts;
  facts.text = this;
  for (const RawClause& clause : clauses) {
    const std::optional<ClauseName> name = find_clause(clause.name);
    if (!name.has_value()) continue;
    facts.add(*name);
    if (*name == ClauseName::Sbuf) facts.sbufs = clause.args.size();
    if (*name == ClauseName::Rbuf) facts.rbufs = clause.args.size();
    if (*name == ClauseName::Target) {
      auto target = parse_target_keyword(clause.args[0]);
      if (target.is_ok()) facts.target = target.value();
    }
  }
  return facts;
}

Result<ParsedDirective> parse_pragma(std::string_view line) {
  std::string_view rest = trim(line);
  if (starts_with(rest, "#")) {
    rest = trim(rest.substr(1));
    if (!starts_with(rest, "pragma")) {
      return Status(ErrorCode::ParseError, "expected '#pragma'");
    }
    rest = trim(rest.substr(6));
  }

  ParsedDirective directive;
  if (starts_with(rest, "comm_parameters")) {
    directive.kind = DirectiveKind::CommParameters;
    rest = trim(rest.substr(15));
  } else if (starts_with(rest, "comm_p2p")) {
    directive.kind = DirectiveKind::CommP2P;
    rest = trim(rest.substr(8));
  } else if (starts_with(rest, "comm_collective")) {
    directive.kind = DirectiveKind::CommCollective;
    rest = trim(rest.substr(15));
  } else {
    return Status(ErrorCode::ParseError,
                  "expected 'comm_parameters', 'comm_p2p' or "
                  "'comm_collective', got '" +
                      std::string(rest.substr(0, 24)) + "'");
  }

  while (!rest.empty()) {
    // Clause name.
    std::size_t i = 0;
    while (i < rest.size() && ident_char(rest[i])) ++i;
    if (i == 0) {
      return Status(ErrorCode::ParseError,
                    "expected a clause name, got '" +
                        std::string(rest.substr(0, 16)) + "'");
    }
    RawClause clause;
    clause.name = std::string(rest.substr(0, i));
    clause.offset = static_cast<std::size_t>(rest.data() - line.data());
    rest = trim(rest.substr(i));

    const std::optional<ClauseName> name = find_clause(clause.name);
    if (!name.has_value()) {
      return Status(ErrorCode::InvalidClause,
                    "unknown clause '" + clause.name + "'");
    }
    if (directive.find(clause.name) != nullptr) {
      return Status(ErrorCode::InvalidClause,
                    "duplicate clause '" + clause.name + "'");
    }

    // Balanced parenthesized argument list.
    if (rest.empty() || rest.front() != '(') {
      return Status(ErrorCode::ParseError,
                    "clause '" + clause.name + "' expects '('");
    }
    int depth = 0;
    std::size_t end = 0;
    for (; end < rest.size(); ++end) {
      if (rest[end] == '(') ++depth;
      if (rest[end] == ')' && --depth == 0) break;
    }
    if (depth != 0) {
      return Status(ErrorCode::ParseError,
                    "unbalanced parentheses in clause '" + clause.name + "'");
    }
    const std::string_view args_text = rest.substr(1, end - 1);
    rest = trim(rest.substr(end + 1));

    for (std::string_view piece : split_top_level(args_text, ',')) {
      const std::string_view arg = trim(piece);
      if (arg.empty()) {
        return Status(ErrorCode::ParseError,
                      "empty argument in clause '" + clause.name + "'");
      }
      clause.args.emplace_back(arg);
    }
    const ClauseRule& rule = kClauseRules[static_cast<std::size_t>(*name)];
    if (clause.args.size() < rule.min_args ||
        clause.args.size() > rule.max_args) {
      return Status(ErrorCode::InvalidClause,
                    "clause '" + clause.name + "' has " +
                        std::to_string(clause.args.size()) +
                        " arguments, expected " +
                        (rule.min_args == rule.max_args
                             ? std::to_string(rule.min_args)
                             : "at least " + std::to_string(rule.min_args)));
    }
    directive.clauses.push_back(std::move(clause));
  }

  CID_RETURN_IF_ERROR(check_clause_rules(directive.kind, directive.facts(),
                                         RuleStage::Written));
  return directive;
}

}  // namespace cid::core
