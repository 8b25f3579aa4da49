// The directive clause model: the ten clauses of comm_parameters / comm_p2p
// (paper Section III-B), their builder API, inheritance (comm_parameters
// assertions apply to every enclosed comm_p2p) and validation rules.
#pragma once

#include <functional>
#include <optional>
#include <string>
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

std::string_view target_keyword(Target target) noexcept;
std::string_view sync_placement_keyword(SyncPlacement placement) noexcept;
std::string_view pattern_keyword(Pattern pattern) noexcept;
Result<Target> parse_target_keyword(std::string_view keyword);
Result<SyncPlacement> parse_sync_placement_keyword(std::string_view keyword);
Result<Pattern> parse_pattern_keyword(std::string_view keyword);

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
  ClauseExpr(ExprValue value) : value_(value), kind_(Kind::Value) {}  // NOLINT
  ClauseExpr(int value)                                                // NOLINT
      : value_(value), kind_(Kind::Value) {}
  ClauseExpr(Expr expr) : expr_(std::move(expr)), kind_(Kind::Parsed) {}  // NOLINT
  template <typename F>
    requires std::is_invocable_r_v<ExprValue, F> &&
             (!std::is_arithmetic_v<std::decay_t<F>>)
  ClauseExpr(F fn)  // NOLINT(google-explicit-constructor)
      : fn_(std::move(fn)), kind_(Kind::Callable) {}
  /// Parses eagerly (once per distinct text per thread; see assign_text);
  /// a parse failure is reported at evaluation time so the builder API stays
  /// chainable.
  ClauseExpr(const char* text) { assign_text(text); }  // NOLINT
  ClauseExpr(const std::string& text) { assign_text(text); }  // NOLINT

  bool present() const noexcept { return kind_ != Kind::Absent; }

  Result<ExprValue> eval(const Env& env) const;

  /// Human-readable form for diagnostics and codegen.
  std::string describe() const;

 private:
  enum class Kind { Absent, Value, Parsed, Callable };

  /// Takes the parse of `text` (tree or exact parse error) from a bounded
  /// per-thread cache, so a directive rebuilt every iteration parses its
  /// clause texts only once.
  void assign_text(std::string_view text);

  ExprValue value_ = 0;
  Expr expr_{};
  std::function<ExprValue()> fn_;
  Status parse_error_;
  Kind kind_ = Kind::Absent;
};

/// A full clause set. Used for both directives; validation differs.
class Clauses {
 public:
  // --- builder ---------------------------------------------------------
  Clauses& sender(ClauseExpr expr) { sender_ = std::move(expr); return *this; }
  Clauses& receiver(ClauseExpr expr) { receiver_ = std::move(expr); return *this; }
  Clauses& sendwhen(ClauseExpr expr) { sendwhen_ = std::move(expr); return *this; }
  Clauses& receivewhen(ClauseExpr expr) { receivewhen_ = std::move(expr); return *this; }
  Clauses& count(ClauseExpr expr) { count_ = std::move(expr); return *this; }
  Clauses& max_comm_iter(ClauseExpr expr) { max_comm_iter_ = std::move(expr); return *this; }
  /// Reliable delivery for the region's MPI-two-sided transfers:
  /// ack/timeout/retransmit with exponential backoff in virtual time.
  /// `timeout_us` is the base retransmission timeout in virtual
  /// microseconds; `max_retries` bounds retransmissions per transfer, after
  /// which the pair is reported undelivered (see core::delivery_report()).
  Clauses& reliability(ClauseExpr timeout_us, ClauseExpr max_retries) {
    reliability_timeout_us_ = std::move(timeout_us);
    reliability_max_retries_ = std::move(max_retries);
    return *this;
  }
  Clauses& target(Target target) { target_ = target; return *this; }
  Clauses& place_sync(SyncPlacement placement) { place_sync_ = placement; return *this; }
  /// Collective-directive clauses (comm_collective only).
  Clauses& pattern(Pattern pattern) { pattern_ = pattern; return *this; }
  Clauses& root(ClauseExpr expr) { root_ = std::move(expr); return *this; }
  /// Group color: ranks with equal values form one group (< 0 = excluded).
  Clauses& group(ClauseExpr expr) { group_ = std::move(expr); return *this; }
  Clauses& sbuf(BufferRef buffer) { sbuf_.push_back(std::move(buffer)); return *this; }
  Clauses& sbuf(std::initializer_list<BufferRef> buffers) {
    sbuf_.insert(sbuf_.end(), buffers.begin(), buffers.end());
    return *this;
  }
  Clauses& rbuf(BufferRef buffer) { rbuf_.push_back(std::move(buffer)); return *this; }
  Clauses& rbuf(std::initializer_list<BufferRef> buffers) {
    rbuf_.insert(rbuf_.end(), buffers.begin(), buffers.end());
    return *this;
  }
  /// Bind a variable for string clause expressions (snapshot by value).
  Clauses& let(std::string name, ExprValue value) {
    bindings_.emplace_back(std::move(name), value);
    return *this;
  }

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
  const std::vector<BufferRef>& sbuf_list() const noexcept { return sbuf_; }
  const std::vector<BufferRef>& rbuf_list() const noexcept { return rbuf_; }
  const std::vector<std::pair<std::string, ExprValue>>& bindings() const noexcept {
    return bindings_;
  }

  /// Inheritance: p2p clauses layered over a comm_parameters region's
  /// clauses. Every clause present on the p2p wins; absent ones inherit
  /// (paper: instances "do not need to re-express these communication
  /// clauses, but may provide additional assertions").
  static Clauses merged(const Clauses& region, const Clauses& p2p);

  /// Validation of the clauses written directly on a comm_p2p site (before
  /// inheritance): rejects the comm_parameters-only clauses place_sync and
  /// max_comm_iter.
  Status validate_p2p_site() const;

  /// Validation for a standalone or merged comm_p2p: required clauses
  /// present, sendwhen/receivewhen paired, buffer lists consistent (the
  /// rules of ClauseView::validate_for_p2p).
  Status validate_for_p2p() const;

  /// Validation for a comm_parameters directive: any subset of clauses, with
  /// sendwhen/receivewhen pairing enforced.
  Status validate_for_params() const;

  /// Validation for a comm_collective directive: pattern + buffers required,
  /// root required except for ALL_TO_ALL, point-to-point-only clauses
  /// rejected.
  Status validate_for_collective() const;

 private:
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
  std::vector<BufferRef> sbuf_;
  std::vector<BufferRef> rbuf_;
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
  const std::vector<BufferRef>& sbuf_list() const noexcept {
    return site_->sbuf_list().empty() ? region_->sbuf_list()
                                      : site_->sbuf_list();
  }
  const std::vector<BufferRef>& rbuf_list() const noexcept {
    return site_->rbuf_list().empty() ? region_->rbuf_list()
                                      : site_->rbuf_list();
  }

  /// Binds every let() into `env`, the region's first, so a site binding
  /// shadows a region binding of the same name.
  void bind_lets(Env& env) const;
  std::size_t let_count() const noexcept {
    return region_->bindings().size() + site_->bindings().size();
  }

  /// The comm_p2p rules: sender, receiver and both buffer lists present,
  /// sendwhen/receivewhen paired, buffer pairs of matching element types.
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
