#include "core/clauses.hpp"

#include <functional>
#include <unordered_map>

namespace cid::core {

std::string_view target_keyword(Target target) noexcept {
  switch (target) {
    case Target::Mpi2Side: return "TARGET_COMM_MPI_2SIDE";
    case Target::Mpi1Side: return "TARGET_COMM_MPI_1SIDE";
    case Target::Shmem: return "TARGET_COMM_SHMEM";
    case Target::Auto: return "TARGET_COMM_AUTO";
  }
  return "TARGET_COMM_UNKNOWN";
}

std::string_view sync_placement_keyword(SyncPlacement placement) noexcept {
  switch (placement) {
    case SyncPlacement::EndParamRegion: return "END_PARAM_REGION";
    case SyncPlacement::BeginNextParamRegion: return "BEGIN_NEXT_PARAM_REGION";
    case SyncPlacement::EndAdjParamRegions: return "END_ADJ_PARAM_REGIONS";
  }
  return "UNKNOWN_SYNC_PLACEMENT";
}

Result<Target> parse_target_keyword(std::string_view keyword) {
  if (keyword == "TARGET_COMM_MPI_2SIDE") return Target::Mpi2Side;
  if (keyword == "TARGET_COMM_MPI_1SIDE") return Target::Mpi1Side;
  if (keyword == "TARGET_COMM_SHMEM") return Target::Shmem;
  if (keyword == "TARGET_COMM_AUTO") return Target::Auto;
  return Status(ErrorCode::InvalidClause,
                "unknown target keyword '" + std::string(keyword) + "'");
}

std::string_view pattern_keyword(Pattern pattern) noexcept {
  switch (pattern) {
    case Pattern::OneToMany: return "PATTERN_ONE_TO_MANY";
    case Pattern::ManyToOne: return "PATTERN_MANY_TO_ONE";
    case Pattern::AllToAll: return "PATTERN_ALL_TO_ALL";
  }
  return "PATTERN_UNKNOWN";
}

Result<Pattern> parse_pattern_keyword(std::string_view keyword) {
  if (keyword == "PATTERN_ONE_TO_MANY") return Pattern::OneToMany;
  if (keyword == "PATTERN_MANY_TO_ONE") return Pattern::ManyToOne;
  if (keyword == "PATTERN_ALL_TO_ALL") return Pattern::AllToAll;
  return Status(ErrorCode::InvalidClause,
                "unknown pattern keyword '" + std::string(keyword) + "'");
}

Result<SyncPlacement> parse_sync_placement_keyword(std::string_view keyword) {
  if (keyword == "END_PARAM_REGION") return SyncPlacement::EndParamRegion;
  if (keyword == "BEGIN_NEXT_PARAM_REGION") {
    return SyncPlacement::BeginNextParamRegion;
  }
  if (keyword == "END_ADJ_PARAM_REGIONS") {
    return SyncPlacement::EndAdjParamRegions;
  }
  return Status(ErrorCode::InvalidClause,
                "unknown place_sync keyword '" + std::string(keyword) + "'");
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
      expr_ = parsed.value();
    } else {
      parse_error_ = parsed.status();
    }
  };
  kind_ = Kind::Parsed;  // a broken text is present; eval() reports the error
  auto it = cache.find(text);
  if (it == cache.end()) {
    if (cache.size() >= kParseCacheEntries) return take(Expr::parse(text));
    it = cache.emplace(std::string(text), Expr::parse(text)).first;
  }
  take(it->second);
}

Result<ExprValue> ClauseExpr::eval(const Env& env) const {
  switch (kind_) {
    case Kind::Absent:
      return Status(ErrorCode::InvalidClause, "evaluating an absent clause");
    case Kind::Value:
      return value_;
    case Kind::Parsed:
      if (!parse_error_.is_ok()) return parse_error_;
      return expr_.eval(env);
    case Kind::Callable:
      return fn_();
  }
  return Status(ErrorCode::RuntimeFault, "bad ClauseExpr kind");
}

std::string ClauseExpr::describe() const {
  switch (kind_) {
    case Kind::Absent:
      return "<absent>";
    case Kind::Value:
      return std::to_string(value_);
    case Kind::Parsed:
      if (!parse_error_.is_ok()) {
        return "<parse error: " + parse_error_.message() + ">";
      }
      return expr_.to_string();
    case Kind::Callable:
      return "<callable>";
  }
  return "<bad>";
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
  // Bindings accumulate; p2p-level bindings shadow region ones by appearing
  // later (Env::bind overwrites).
  out.bindings_.insert(out.bindings_.end(), p2p.bindings_.begin(),
                       p2p.bindings_.end());
  return out;
}

Status Clauses::validate_p2p_site() const {
  if (place_sync_.has_value()) {
    return Status(ErrorCode::InvalidClause,
                  "place_sync may only be used with comm_parameters");
  }
  if (max_comm_iter_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "max_comm_iter may only be used with comm_parameters");
  }
  if (reliability_present()) {
    return Status(ErrorCode::InvalidClause,
                  "reliability may only be used with comm_parameters");
  }
  return Status::ok();
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
  const std::vector<BufferRef>& sbufs = sbuf_list();
  const std::vector<BufferRef>& rbufs = rbuf_list();
  if (!sender_clause().present()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_p2p requires the sender clause");
  }
  if (!receiver_clause().present()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_p2p requires the receiver clause");
  }
  if (sbufs.empty()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_p2p requires a non-empty sbuf clause");
  }
  if (rbufs.empty()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_p2p requires a non-empty rbuf clause");
  }
  if (sbufs.size() != rbufs.size()) {
    return Status(ErrorCode::InvalidClause,
                  "sbuf and rbuf must list the same number of buffers (got " +
                      std::to_string(sbufs.size()) + " and " +
                      std::to_string(rbufs.size()) + ")");
  }
  if (sendwhen_clause().present() != receivewhen_clause().present()) {
    return Status(ErrorCode::InvalidClause,
                  "sendwhen and receivewhen must both be present or both be "
                  "omitted");
  }
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
  if (!pattern_.has_value()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_collective requires the pattern clause");
  }
  if (sbuf_.empty() || rbuf_.empty()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_collective requires sbuf and rbuf clauses");
  }
  if (sbuf_.size() != 1 || rbuf_.size() != 1) {
    return Status(ErrorCode::InvalidClause,
                  "comm_collective takes exactly one sbuf and one rbuf");
  }
  if (*pattern_ != Pattern::AllToAll && !root_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "pattern " + std::string(pattern_keyword(*pattern_)) +
                      " requires the root clause");
  }
  if (sendwhen_.present() || receivewhen_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "sendwhen/receivewhen do not apply to comm_collective "
                  "(use the group clause to select participants)");
  }
  if (sender_.present() || receiver_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "sender/receiver do not apply to comm_collective");
  }
  if (place_sync_.has_value() || max_comm_iter_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "place_sync/max_comm_iter do not apply to comm_collective");
  }
  if (reliability_present()) {
    return Status(ErrorCode::InvalidClause,
                  "reliability does not apply to comm_collective");
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
  if (sendwhen_.present() != receivewhen_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "sendwhen and receivewhen must both be present or both be "
                  "omitted");
  }
  if (sbuf_.size() != rbuf_.size() && !sbuf_.empty() && !rbuf_.empty()) {
    return Status(ErrorCode::InvalidClause,
                  "sbuf and rbuf on comm_parameters must list the same "
                  "number of buffers");
  }
  return Status::ok();
}

}  // namespace cid::core
