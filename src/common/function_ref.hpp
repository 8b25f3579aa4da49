// FunctionRef: a non-owning reference to a callable, for parameters that are
// only called during the call that receives them (a directive's region body
// or overlap block). Unlike std::function it never allocates and never
// copies the callable; the referenced callable must outlive every call.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace cid {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// An empty reference: operator bool is false and it must not be called.
  FunctionRef() noexcept = default;
  FunctionRef(std::nullptr_t) noexcept {}  // NOLINT

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& callable) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(callable)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return call_ != nullptr; }

 private:
  void* object_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace cid
