// The directive clause model: the ten clauses of comm_parameters / comm_p2p
// (paper Section III-B), their builder API, inheritance (comm_parameters
// assertions apply to every enclosed comm_p2p) and validation rules.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/buffer.hpp"
#include "core/expr.hpp"

namespace cid::core {

/// The target clause keywords.
enum class Target {
  Mpi2Side,  ///< TARGET_COMM_MPI_2SIDE: MPI_Isend / MPI_Irecv (the default)
  Mpi1Side,  ///< TARGET_COMM_MPI_1SIDE: MPI_Put
  Shmem,     ///< TARGET_COMM_SHMEM: typed shmem_put
  Auto,      ///< TARGET_COMM_AUTO: cid::tune picks per site (docs/TUNING.md)
};

/// The place_sync clause keywords (comm_parameters only).
enum class SyncPlacement {
  EndParamRegion,        ///< END_PARAM_REGION
  BeginNextParamRegion,  ///< BEGIN_NEXT_PARAM_REGION
  EndAdjParamRegions,    ///< END_ADJ_PARAM_REGIONS
};

/// Collective communication patterns — the paper's Section V extension
/// ("many-to-one, one-to-many and all-to-all patterns" over "groups of
/// processes").
enum class Pattern {
  OneToMany,  ///< PATTERN_ONE_TO_MANY: broadcast from root
  ManyToOne,  ///< PATTERN_MANY_TO_ONE: gather to root
  AllToAll,   ///< PATTERN_ALL_TO_ALL: full block exchange
};

/// The keywords of the target, place_sync and pattern clauses, indexed by
/// their enum's value.
inline constexpr std::array<std::string_view, 4> kTargetKeywords = {
    "TARGET_COMM_MPI_2SIDE", "TARGET_COMM_MPI_1SIDE", "TARGET_COMM_SHMEM",
    "TARGET_COMM_AUTO"};
inline constexpr std::array<std::string_view, 3> kSyncPlacementKeywords = {
    "END_PARAM_REGION", "BEGIN_NEXT_PARAM_REGION", "END_ADJ_PARAM_REGIONS"};
inline constexpr std::array<std::string_view, 3> kPatternKeywords = {
    "PATTERN_ONE_TO_MANY", "PATTERN_MANY_TO_ONE", "PATTERN_ALL_TO_ALL"};

std::string_view target_keyword(Target target) noexcept;
std::string_view sync_placement_keyword(SyncPlacement placement) noexcept;
std::string_view pattern_keyword(Pattern pattern) noexcept;
Result<Target> parse_target_keyword(std::string_view keyword);
Result<SyncPlacement> parse_sync_placement_keyword(std::string_view keyword);
Result<Pattern> parse_pattern_keyword(std::string_view keyword);

// --- static clause rules ----------------------------------------------------
// One rule set for parse_pragma (a site's own clauses), the directive scanner
// (each node's clauses after inheritance) and the runtime's validation; the
// per-clause data is kClauseRules in pragma.cpp (docs/DIRECTIVES.md §2).

enum class DirectiveKind { CommParameters, CommP2P, CommCollective };

std::string_view directive_name(DirectiveKind kind) noexcept;

/// The clauses of the grammar, in kClauseRules order.
enum class ClauseName : std::uint8_t {
  Sender, Receiver, Sbuf, Rbuf, Sendwhen, Receivewhen, Target, Count,
  PlaceSync, MaxCommIter, Reliability, Pattern, Root, Group,
};

std::string_view clause_name(ClauseName name) noexcept;

struct ParsedDirective;

/// What the static rules read of one clause set.
struct ClauseFacts {
  std::uint32_t present = 0;  ///< bit 1 << ClauseName per clause present
  std::size_t sbufs = 0;      ///< buffers listed by sbuf
  std::size_t rbufs = 0;      ///< buffers listed by rbuf
  Target target = Target::Mpi2Side;  ///< the target clause, when present
  /// The pragma text the facts were read from, so the keyword clauses can be
  /// checked against their keyword sets; null for a builder-API clause set,
  /// whose keywords are enums.
  const ParsedDirective* text = nullptr;

  void add(ClauseName name) noexcept {
    present |= 1u << static_cast<unsigned>(name);
  }
  bool has(ClauseName name) const noexcept {
    return (present >> static_cast<unsigned>(name) & 1u) != 0;
  }
};

/// Which rules apply: where each clause may be written (checked on a site's
/// own clauses), what a directive needs once its enclosing regions' clauses
/// are inherited, or both (a clause set the runtime checks as it stands).
/// The sendwhen/receivewhen pairing holds at every stage.
enum class RuleStage { Written, Resolved, Both };

/// One broken rule: its cidt check id (CID-P001, P005, P006, S032 or S035),
/// the clause it is about, if one, and the message.
struct RuleViolation {
  const char* id;
  std::optional<ClauseName> clause;
  Status status;
};

/// Every rule of `stage` that `facts` breaks, in rule order; empty (and
/// without allocating) when all hold.
std::vector<RuleViolation> clause_rule_violations(DirectiveKind kind,
                                                  const ClauseFacts& facts,
                                                  RuleStage stage);

namespace detail {

/// kClauseRules folded into bit masks over ClauseFacts::present, so the
/// runtime accepts a valid clause set with a few inline mask tests.
struct RuleMasks {
  std::array<std::uint32_t, 3> written_on{};  ///< per kind: may be written
  /// Per kind, as written [0] and after inheritance [1]: required (a clause
  /// no comm_parameters may carry is never inherited: required as written).
  std::array<std::array<std::uint32_t, 3>, 2> required{};
  std::uint32_t paired = 0;  ///< both clauses of each pair (one pair today)
};

extern const RuleMasks kRuleMasks;  ///< defined beside kClauseRules

/// Which rules a clause set breaks; clause_rule_violations builds the
/// messages from it only when something is broken.
struct Breaks {
  std::uint32_t misplaced = 0;  ///< clauses written where they may not be
  bool unpaired = false;
  std::uint32_t missing = 0;  ///< required clauses absent
  bool bad_counts = false;
  bool unreliable_target = false;
  bool unknown_keywords = false;  ///< some keyword not in its clause's set

  bool any() const noexcept {
    return misplaced != 0 || unpaired || missing != 0 || bad_counts ||
           unreliable_target || unknown_keywords;
  }
};

bool any_unknown_keyword(const ParsedDirective& text);

inline Breaks breaks_of(DirectiveKind kind, const ClauseFacts& facts,
                        RuleStage stage) {
  const auto k = static_cast<std::size_t>(kind);
  const bool written = stage == RuleStage::Written;
  const std::uint32_t present = facts.present;
  const std::uint32_t pairs = present & kRuleMasks.paired;
  Breaks out;
  out.misplaced = stage == RuleStage::Resolved
                      ? 0
                      : present & ~kRuleMasks.written_on[k];
  out.unpaired = pairs != 0 && pairs != kRuleMasks.paired;
  out.missing = kRuleMasks.required[written ? 0 : 1][k] & ~present;
  if (written) return out;
  if (facts.has(ClauseName::Sbuf) && facts.has(ClauseName::Rbuf)) {
    out.bad_counts = kind == DirectiveKind::CommCollective
                         ? facts.sbufs != 1 || facts.rbufs != 1
                         : facts.sbufs != facts.rbufs;
  }
  // The runtime tuner lowers TARGET_COMM_AUTO to two-sided MPI whenever a
  // reliability clause is present.
  out.unreliable_target =
      facts.has(ClauseName::Reliability) && facts.has(ClauseName::Target) &&
      facts.target != Target::Mpi2Side && facts.target != Target::Auto;
  out.unknown_keywords =
      facts.text != nullptr && any_unknown_keyword(*facts.text);
  return out;
}

}  // namespace detail

/// The first rule of `stage` that `facts` breaks, as a Status; ok, and
/// nothing built, when all hold.
inline Status check_clause_rules(DirectiveKind kind, const ClauseFacts& facts,
                                 RuleStage stage) {
  if (!detail::breaks_of(kind, facts, stage).any()) return Status::ok();
  return std::move(clause_rule_violations(kind, facts, stage).front().status);
}

/// A clause argument: a constant, a parsed expression (evaluated against the
/// directive environment), or a callable (evaluated at execution time on each
/// rank — the embedded-API equivalent of a C expression in the pragma).
class ClauseExpr {
 public:
  /// Distinct clause texts whose parse each thread remembers. A program has
  /// a fixed set of directive texts; the bound only stops a program that
  /// generates texts from growing the cache without limit. Texts past it
  /// are parsed uncached.
  static constexpr std::size_t kParseCacheEntries = 4096;

  ClauseExpr() = default;
  ClauseExpr(ExprValue value)  // NOLINT
      : value_(std::in_place_type<ExprValue>, value) {}
  ClauseExpr(int value)  // NOLINT
      : value_(std::in_place_type<ExprValue>, value) {}
  ClauseExpr(Expr expr) : value_(std::move(expr)) {}  // NOLINT
  template <typename F>
    requires std::is_invocable_r_v<ExprValue, F> &&
             (!std::is_arithmetic_v<std::decay_t<F>>)
  ClauseExpr(F fn)  // NOLINT(google-explicit-constructor)
      : value_(std::in_place_type<Callable>, std::move(fn)) {}
  /// Parses eagerly (once per distinct text per thread; see assign_text);
  /// a parse failure is reported at evaluation time so the builder API stays
  /// chainable.
  ClauseExpr(const char* text) { assign_text(text); }  // NOLINT
  ClauseExpr(const std::string& text) { assign_text(text); }  // NOLINT

  bool present() const noexcept { return value_.index() != 0; }

  Result<ExprValue> eval(const Env& env) const;

  /// Human-readable form for diagnostics and codegen.
  std::string describe() const;

 private:
  using Callable = std::function<ExprValue()>;

  /// Takes the parse of `text` (tree or exact parse error) from a bounded
  /// per-thread cache, so a directive rebuilt every iteration parses its
  /// clause texts only once.
  void assign_text(std::string_view text);

  /// Absent, a constant, a parsed text, a callable, or the parse error of a
  /// text (present: eval() reports it). One alternative at a time keeps a
  /// clause set small, and so cheap to build and destroy per directive.
  std::variant<std::monostate, ExprValue, Expr, Callable, Status> value_;
};

/// A full clause set. Used for both directives; validation differs.
class Clauses {
 public:
  // --- builder ---------------------------------------------------------
  // Each builder has an lvalue form that returns the set and an rvalue form
  // that returns it as an rvalue, so `Clauses c = Clauses().sender(..)...;`
  // moves the built set into `c` instead of copying every clause.
  Clauses& sender(ClauseExpr expr) & { return set(sender_, std::move(expr), ClauseName::Sender); }
  Clauses&& sender(ClauseExpr expr) && { return std::move(sender(std::move(expr))); }
  Clauses& receiver(ClauseExpr expr) & { return set(receiver_, std::move(expr), ClauseName::Receiver); }
  Clauses&& receiver(ClauseExpr expr) && { return std::move(receiver(std::move(expr))); }
  Clauses& sendwhen(ClauseExpr expr) & { return set(sendwhen_, std::move(expr), ClauseName::Sendwhen); }
  Clauses&& sendwhen(ClauseExpr expr) && { return std::move(sendwhen(std::move(expr))); }
  Clauses& receivewhen(ClauseExpr expr) & { return set(receivewhen_, std::move(expr), ClauseName::Receivewhen); }
  Clauses&& receivewhen(ClauseExpr expr) && { return std::move(receivewhen(std::move(expr))); }
  Clauses& count(ClauseExpr expr) & { return set(count_, std::move(expr), ClauseName::Count); }
  Clauses&& count(ClauseExpr expr) && { return std::move(count(std::move(expr))); }
  Clauses& max_comm_iter(ClauseExpr expr) & { return set(max_comm_iter_, std::move(expr), ClauseName::MaxCommIter); }
  Clauses&& max_comm_iter(ClauseExpr expr) && { return std::move(max_comm_iter(std::move(expr))); }
  /// Reliable delivery for the region's MPI-two-sided transfers:
  /// ack/timeout/retransmit with exponential backoff in virtual time.
  /// `timeout_us` is the base retransmission timeout in virtual
  /// microseconds; `max_retries` bounds retransmissions per transfer, after
  /// which the pair is reported undelivered (see core::delivery_report()).
  Clauses& reliability(ClauseExpr timeout_us, ClauseExpr max_retries) & {
    reliability_max_retries_ = std::move(max_retries);
    return set(reliability_timeout_us_, std::move(timeout_us), ClauseName::Reliability);
  }
  Clauses&& reliability(ClauseExpr timeout_us, ClauseExpr max_retries) && {
    return std::move(reliability(std::move(timeout_us), std::move(max_retries)));
  }
  Clauses& target(Target target) & { target_ = target; return mark(ClauseName::Target, true); }
  Clauses&& target(Target target) && { return std::move(this->target(target)); }
  Clauses& place_sync(SyncPlacement placement) & { place_sync_ = placement; return mark(ClauseName::PlaceSync, true); }
  Clauses&& place_sync(SyncPlacement placement) && { return std::move(place_sync(placement)); }
  /// Collective-directive clauses (comm_collective only).
  Clauses& pattern(Pattern pattern) & { pattern_ = pattern; return mark(ClauseName::Pattern, true); }
  Clauses&& pattern(Pattern pattern) && { return std::move(this->pattern(pattern)); }
  Clauses& root(ClauseExpr expr) & { return set(root_, std::move(expr), ClauseName::Root); }
  Clauses&& root(ClauseExpr expr) && { return std::move(root(std::move(expr))); }
  /// Group color: ranks with equal values form one group (< 0 = excluded).
  Clauses& group(ClauseExpr expr) & { return set(group_, std::move(expr), ClauseName::Group); }
  Clauses&& group(ClauseExpr expr) && { return std::move(group(std::move(expr))); }
  Clauses& sbuf(BufferRef buffer) & { sbuf_.push_back(buffer); return *this; }
  Clauses&& sbuf(BufferRef buffer) && { return std::move(sbuf(buffer)); }
  Clauses& sbuf(std::initializer_list<BufferRef> buffers) & {
    for (const BufferRef& buffer : buffers) sbuf_.push_back(buffer);
    return *this;
  }
  Clauses&& sbuf(std::initializer_list<BufferRef> buffers) && { return std::move(sbuf(buffers)); }
  Clauses& rbuf(BufferRef buffer) & { rbuf_.push_back(buffer); return *this; }
  Clauses&& rbuf(BufferRef buffer) && { return std::move(rbuf(buffer)); }
  Clauses& rbuf(std::initializer_list<BufferRef> buffers) & {
    for (const BufferRef& buffer : buffers) rbuf_.push_back(buffer);
    return *this;
  }
  Clauses&& rbuf(std::initializer_list<BufferRef> buffers) && { return std::move(rbuf(buffers)); }
  /// Bind a variable for string clause expressions (snapshot by value).
  Clauses& let(std::string name, ExprValue value) & {
    bindings_.emplace_back(std::move(name), value);
    return *this;
  }
  Clauses&& let(std::string name, ExprValue value) && { return std::move(let(std::move(name), value)); }

  // --- accessors --------------------------------------------------------
  const ClauseExpr& sender_clause() const noexcept { return sender_; }
  const ClauseExpr& receiver_clause() const noexcept { return receiver_; }
  const ClauseExpr& sendwhen_clause() const noexcept { return sendwhen_; }
  const ClauseExpr& receivewhen_clause() const noexcept { return receivewhen_; }
  const ClauseExpr& count_clause() const noexcept { return count_; }
  const ClauseExpr& max_comm_iter_clause() const noexcept { return max_comm_iter_; }
  const ClauseExpr& reliability_timeout_clause() const noexcept { return reliability_timeout_us_; }
  const ClauseExpr& reliability_retries_clause() const noexcept { return reliability_max_retries_; }
  bool reliability_present() const noexcept { return reliability_timeout_us_.present(); }
  const std::optional<Target>& target_clause() const noexcept { return target_; }
  const std::optional<SyncPlacement>& place_sync_clause() const noexcept { return place_sync_; }
  const std::optional<Pattern>& pattern_clause() const noexcept { return pattern_; }
  const ClauseExpr& root_clause() const noexcept { return root_; }
  const ClauseExpr& group_clause() const noexcept { return group_; }
  const BufferList& sbuf_list() const noexcept { return sbuf_; }
  const BufferList& rbuf_list() const noexcept { return rbuf_; }
  const std::vector<std::pair<std::string, ExprValue>>& bindings() const noexcept {
    return bindings_;
  }

  /// The clauses present, for the static rules.
  ClauseFacts facts() const noexcept {
    ClauseFacts facts;
    facts.present = present_;
    if (!sbuf_.empty()) facts.add(ClauseName::Sbuf);
    if (!rbuf_.empty()) facts.add(ClauseName::Rbuf);
    facts.sbufs = sbuf_.size();
    facts.rbufs = rbuf_.size();
    facts.target = target_.value_or(Target::Mpi2Side);
    return facts;
  }

  /// Inheritance: p2p clauses layered over a comm_parameters region's
  /// clauses. Every clause present on the p2p wins; absent ones inherit
  /// (paper: instances "do not need to re-express these communication
  /// clauses, but may provide additional assertions").
  static Clauses merged(const Clauses& region, const Clauses& p2p);

  /// The written-clause rules for a comm_p2p site (before inheritance): no
  /// comm_parameters-only or comm_collective-only clause, guards paired.
  Status validate_p2p_site() const;

  /// Validation for a standalone or merged comm_p2p (the rules of
  /// ClauseView::validate_for_p2p).
  Status validate_for_p2p() const;

  /// The static rules for a comm_parameters directive's own clauses.
  Status validate_for_params() const;

  /// The static rules for a comm_collective, then root required except for
  /// ALL_TO_ALL and matching sbuf/rbuf element types.
  Status validate_for_collective() const;

 private:
  friend class ClauseView;

  Clauses& mark(ClauseName name, bool present) noexcept {
    const std::uint32_t bit = 1u << static_cast<unsigned>(name);
    present_ = present ? present_ | bit : present_ & ~bit;
    return *this;
  }
  Clauses& set(ClauseExpr& slot, ClauseExpr expr, ClauseName name) {
    slot = std::move(expr);
    return mark(name, slot.present());
  }

  /// ClauseFacts::present of every clause but the buffer lists, kept by the
  /// builder so the static rules read it in O(1) on every execution.
  std::uint32_t present_ = 0;
  ClauseExpr sender_;
  ClauseExpr receiver_;
  ClauseExpr sendwhen_;
  ClauseExpr receivewhen_;
  ClauseExpr count_;
  ClauseExpr max_comm_iter_;
  ClauseExpr reliability_timeout_us_;
  ClauseExpr reliability_max_retries_;
  std::optional<Target> target_;
  std::optional<SyncPlacement> place_sync_;
  std::optional<Pattern> pattern_;
  ClauseExpr root_;
  ClauseExpr group_;
  BufferList sbuf_;
  BufferList rbuf_;
  std::vector<std::pair<std::string, ExprValue>> bindings_;
};

/// A comm_p2p's effective clauses, read in place: the site's clauses layered
/// over the enclosing region's by the rule of Clauses::merged. A clause
/// present on the site wins, otherwise the region's applies; the reliability
/// pair moves together; bindings are the region's, then the site's. The
/// executor reads this view on every execution instead of building a merged
/// copy. Both clause sets must outlive the view.
class ClauseView {
 public:
  explicit ClauseView(const Clauses& site) : ClauseView(nullptr, site) {}
  /// `region` may be null (a standalone comm_p2p).
  ClauseView(const Clauses* region, const Clauses& site);

  const ClauseExpr& sender_clause() const noexcept {
    return pick(site_->sender_clause(), region_->sender_clause());
  }
  const ClauseExpr& receiver_clause() const noexcept {
    return pick(site_->receiver_clause(), region_->receiver_clause());
  }
  const ClauseExpr& sendwhen_clause() const noexcept {
    return pick(site_->sendwhen_clause(), region_->sendwhen_clause());
  }
  const ClauseExpr& receivewhen_clause() const noexcept {
    return pick(site_->receivewhen_clause(), region_->receivewhen_clause());
  }
  const ClauseExpr& count_clause() const noexcept {
    return pick(site_->count_clause(), region_->count_clause());
  }
  const ClauseExpr& max_comm_iter_clause() const noexcept {
    return pick(site_->max_comm_iter_clause(), region_->max_comm_iter_clause());
  }
  bool reliability_present() const noexcept {
    return reliability_owner().reliability_present();
  }
  const ClauseExpr& reliability_timeout_clause() const noexcept {
    return reliability_owner().reliability_timeout_clause();
  }
  const ClauseExpr& reliability_retries_clause() const noexcept {
    return reliability_owner().reliability_retries_clause();
  }
  const std::optional<Target>& target_clause() const noexcept {
    return site_->target_clause().has_value() ? site_->target_clause()
                                              : region_->target_clause();
  }
  const BufferList& sbuf_list() const noexcept {
    return site_->sbuf_list().empty() ? region_->sbuf_list()
                                      : site_->sbuf_list();
  }
  const BufferList& rbuf_list() const noexcept {
    return site_->rbuf_list().empty() ? region_->rbuf_list()
                                      : site_->rbuf_list();
  }

  /// Binds every let() into `env`, the region's first, so a site binding
  /// shadows a region binding of the same name.
  void bind_lets(Env& env) const;

  /// The clauses present after inheritance, for the static rules.
  ClauseFacts facts() const noexcept {
    const BufferList& sbufs = sbuf_list();
    const BufferList& rbufs = rbuf_list();
    ClauseFacts facts;
    facts.present = site_->present_ | region_->present_;
    if (!sbufs.empty()) facts.add(ClauseName::Sbuf);
    if (!rbufs.empty()) facts.add(ClauseName::Rbuf);
    facts.sbufs = sbufs.size();
    facts.rbufs = rbufs.size();
    facts.target = target_clause().value_or(Target::Mpi2Side);
    return facts;
  }

  /// The static rules for a comm_p2p after inheritance, then buffer pairs of
  /// matching element types.
  Status validate_for_p2p() const;

 private:
  static const ClauseExpr& pick(const ClauseExpr& site,
                                const ClauseExpr& region) noexcept {
    return site.present() ? site : region;
  }
  const Clauses& reliability_owner() const noexcept {
    return site_->reliability_present() ? *site_ : *region_;
  }

  const Clauses* region_;  ///< never null: an empty set when standalone
  const Clauses* site_;
};

}  // namespace cid::core
