#include "core/clauses.hpp"

#include <functional>
#include <unordered_map>

namespace cid::core {

namespace {

template <typename Enum, std::size_t N>
Result<Enum> parse_keyword(const std::array<std::string_view, N>& keywords,
                           std::string_view clause, std::string_view keyword) {
  for (std::size_t i = 0; i < N; ++i) {
    if (keywords[i] == keyword) return static_cast<Enum>(i);
  }
  return Status(ErrorCode::InvalidClause, "unknown " + std::string(clause) +
                                              " keyword '" +
                                              std::string(keyword) + "'");
}

}  // namespace

std::string_view target_keyword(Target target) noexcept {
  return kTargetKeywords[static_cast<std::size_t>(target)];
}

std::string_view sync_placement_keyword(SyncPlacement placement) noexcept {
  return kSyncPlacementKeywords[static_cast<std::size_t>(placement)];
}

std::string_view pattern_keyword(Pattern pattern) noexcept {
  return kPatternKeywords[static_cast<std::size_t>(pattern)];
}

Result<Target> parse_target_keyword(std::string_view keyword) {
  return parse_keyword<Target>(kTargetKeywords, "target", keyword);
}

Result<SyncPlacement> parse_sync_placement_keyword(std::string_view keyword) {
  return parse_keyword<SyncPlacement>(kSyncPlacementKeywords, "place_sync",
                                      keyword);
}

Result<Pattern> parse_pattern_keyword(std::string_view keyword) {
  return parse_keyword<Pattern>(kPatternKeywords, "pattern", keyword);
}

namespace {

struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

}  // namespace

void ClauseExpr::assign_text(std::string_view text) {
  // Per thread, so a hit takes no lock; Expr trees are immutable and shared,
  // so a ClauseExpr may outlive or leave the thread that built it. Nothing
  // here yields, so a fiber never holds the cache across a migration.
  thread_local std::unordered_map<std::string, Result<Expr>, TextHash,
                                  std::equal_to<>>
      cache;
  const auto take = [this](const Result<Expr>& parsed) {
    if (parsed.is_ok()) {
      value_ = parsed.value();
    } else {
      value_ = parsed.status();  // present; eval() reports the error
    }
  };
  auto it = cache.find(text);
  if (it == cache.end()) {
    if (cache.size() >= kParseCacheEntries) return take(Expr::parse(text));
    it = cache.emplace(std::string(text), Expr::parse(text)).first;
  }
  take(it->second);
}

Result<ExprValue> ClauseExpr::eval(const Env& env) const {
  if (const auto* fn = std::get_if<Callable>(&value_)) return (*fn)();
  if (const auto* expr = std::get_if<Expr>(&value_)) return expr->eval(env);
  if (const auto* value = std::get_if<ExprValue>(&value_)) return *value;
  if (const auto* error = std::get_if<Status>(&value_)) return *error;
  return Status(ErrorCode::InvalidClause, "evaluating an absent clause");
}

std::string ClauseExpr::describe() const {
  if (std::holds_alternative<Callable>(value_)) return "<callable>";
  if (const auto* expr = std::get_if<Expr>(&value_)) return expr->to_string();
  if (const auto* value = std::get_if<ExprValue>(&value_)) {
    return std::to_string(*value);
  }
  if (const auto* error = std::get_if<Status>(&value_)) {
    return "<parse error: " + error->message() + ">";
  }
  return "<absent>";
}

Clauses Clauses::merged(const Clauses& region, const Clauses& p2p) {
  Clauses out = region;
  if (p2p.sender_.present()) out.sender_ = p2p.sender_;
  if (p2p.receiver_.present()) out.receiver_ = p2p.receiver_;
  if (p2p.sendwhen_.present()) out.sendwhen_ = p2p.sendwhen_;
  if (p2p.receivewhen_.present()) out.receivewhen_ = p2p.receivewhen_;
  if (p2p.count_.present()) out.count_ = p2p.count_;
  if (p2p.max_comm_iter_.present()) out.max_comm_iter_ = p2p.max_comm_iter_;
  if (p2p.reliability_timeout_us_.present()) {
    out.reliability_timeout_us_ = p2p.reliability_timeout_us_;
    out.reliability_max_retries_ = p2p.reliability_max_retries_;
  }
  if (p2p.target_.has_value()) out.target_ = p2p.target_;
  if (p2p.place_sync_.has_value()) out.place_sync_ = p2p.place_sync_;
  if (p2p.pattern_.has_value()) out.pattern_ = p2p.pattern_;
  if (p2p.root_.present()) out.root_ = p2p.root_;
  if (p2p.group_.present()) out.group_ = p2p.group_;
  if (!p2p.sbuf_.empty()) out.sbuf_ = p2p.sbuf_;
  if (!p2p.rbuf_.empty()) out.rbuf_ = p2p.rbuf_;
  out.present_ |= p2p.present_;
  // Bindings accumulate; p2p-level bindings shadow region ones by appearing
  // later (Env::bind overwrites).
  out.bindings_.insert(out.bindings_.end(), p2p.bindings_.begin(),
                       p2p.bindings_.end());
  return out;
}

Status Clauses::validate_p2p_site() const {
  return check_clause_rules(DirectiveKind::CommP2P, facts(),
                            RuleStage::Written);
}

ClauseView::ClauseView(const Clauses* region, const Clauses& site)
    : site_(&site) {
  static const Clauses kNoRegion;
  region_ = region != nullptr ? region : &kNoRegion;
}

void ClauseView::bind_lets(Env& env) const {
  for (const auto& [name, value] : region_->bindings()) env.bind(name, value);
  for (const auto& [name, value] : site_->bindings()) env.bind(name, value);
}

Status Clauses::validate_for_p2p() const {
  return ClauseView(*this).validate_for_p2p();
}

Status ClauseView::validate_for_p2p() const {
  CID_RETURN_IF_ERROR(
      check_clause_rules(DirectiveKind::CommP2P, facts(), RuleStage::Resolved));
  const BufferList& sbufs = sbuf_list();
  const BufferList& rbufs = rbuf_list();
  for (std::size_t i = 0; i < sbufs.size(); ++i) {
    const BufferRef& s = sbufs[i];
    const BufferRef& r = rbufs[i];
    if (s.element_size != r.element_size ||
        s.is_composite() != r.is_composite() ||
        (s.is_composite() ? s.layout != r.layout : s.basic != r.basic)) {
      return Status(ErrorCode::InvalidClause,
                    "sbuf/rbuf pair " + std::to_string(i) +
                        " have mismatched element types");
    }
    if (s.is_composite()) {
      CID_RETURN_IF_ERROR(s.layout->validate());
    }
  }
  return Status::ok();
}

Status Clauses::validate_for_collective() const {
  CID_RETURN_IF_ERROR(check_clause_rules(DirectiveKind::CommCollective,
                                         facts(), RuleStage::Both));
  if (*pattern_ != Pattern::AllToAll && !root_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "pattern " + std::string(pattern_keyword(*pattern_)) +
                      " requires the root clause");
  }
  const BufferRef& s = sbuf_.front();
  const BufferRef& r = rbuf_.front();
  if (s.element_size != r.element_size ||
      s.is_composite() != r.is_composite() ||
      (s.is_composite() ? s.layout != r.layout : s.basic != r.basic)) {
    return Status(ErrorCode::InvalidClause,
                  "comm_collective sbuf/rbuf have mismatched element types");
  }
  if (s.is_composite()) {
    CID_RETURN_IF_ERROR(s.layout->validate());
  }
  return Status::ok();
}

Status Clauses::validate_for_params() const {
  return check_clause_rules(DirectiveKind::CommParameters, facts(),
                            RuleStage::Both);
}

}  // namespace cid::core
