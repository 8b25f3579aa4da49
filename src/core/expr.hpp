// The clause expression mini-language.
//
// Clause arguments in the paper are C expressions over process-local values:
//   sender(rank-1)   receiver((rank+1)%nprocs)   sendwhen(rank%2==0)
// This module parses that subset (integer arithmetic, comparisons, logical
// operators, ternary) into an AST that can be (a) evaluated at directive
// execution time against an environment binding `rank`, `nprocs` and user
// variables, and (b) printed back verbatim by the source-to-source
// translator.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace cid::core {

using ExprValue = std::int64_t;

/// Variable bindings for evaluation. `rank` and `nprocs` are bound by the
/// executor; user variables come from Clauses::let(). A directive binds a
/// handful of names, so they sit inline in a flat list searched linearly;
/// only an environment of more than kInline names allocates. Names are not
/// copied: each must outlive the Env (string literals and the names held by
/// the Clauses being executed do).
class Env {
 public:
  static constexpr std::size_t kInline = 8;

  /// Binds `name`, overwriting an existing binding of the same name.
  void bind(std::string_view name, ExprValue value) {
    const std::size_t i = index_of(name);
    if (i < size()) {
      at(i).value = value;
    } else if (size_ < kInline) {
      inline_[size_++] = {name, value};
    } else {
      spill_.push_back({name, value});
    }
  }
  /// Looks up a variable; error Status when unbound.
  Result<ExprValue> lookup(std::string_view name) const {
    const std::size_t i = index_of(name);
    if (i < size()) return at(i).value;
    return Status(ErrorCode::ParseError, "unbound variable '" +
                                             std::string(name) +
                                             "' in clause expression");
  }

 private:
  struct Binding {
    std::string_view name;
    ExprValue value = 0;
  };
  // Bindings are numbered inline first, then spilled.
  std::size_t size() const noexcept { return size_ + spill_.size(); }
  Binding& at(std::size_t i) {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }
  const Binding& at(std::size_t i) const {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }
  /// The number of `name`'s binding; size() when unbound.
  std::size_t index_of(std::string_view name) const noexcept {
    std::size_t i = 0;
    while (i < size() && at(i).name != name) ++i;
    return i;
  }

  std::array<Binding, kInline> inline_{};
  std::size_t size_ = 0;        ///< bindings in inline_
  std::vector<Binding> spill_;  ///< bindings past kInline
};

/// Parsed expression; immutable, shareable.
class Expr {
 public:
  /// An invalid (empty) expression; eval() and to_string() reject it.
  Expr() = default;

  /// Parse the clause-expression subset. Returns ParseError status with a
  /// position-annotated message on failure.
  static Result<Expr> parse(std::string_view text);

  /// Evaluate against an environment. Errors: unbound variable, division or
  /// modulo by zero.
  Result<ExprValue> eval(const Env& env) const;

  /// Render back to C syntax (normalized whitespace, original structure).
  std::string to_string() const;

  /// Names of all variables referenced (sorted, unique) — used by validation
  /// and by the translator to check scope.
  std::vector<std::string> free_variables() const;

  bool valid() const noexcept { return node_ != nullptr; }

  struct Node;

 private:
  explicit Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  std::shared_ptr<const Node> node_;
};

}  // namespace cid::core
