// BufferRef: the type-erased descriptor behind the sbuf/rbuf clauses.
//
// A buffer carries everything the directive lowering needs: the address, the
// element size and type (basic or reflected composite), whether its extent is
// statically known (arrays, vectors, matrices — used for the paper's count
// inference), and a display name for diagnostics and codegen. The name is
// not copied: it is a string literal at every call site (the translator
// emits one per buffer), so describing a buffer never allocates.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "core/type_layout.hpp"
#include "mpi/datatype.hpp"

namespace cid::core {

struct BufferRef {
  void* data = nullptr;
  std::size_t element_size = 0;
  /// Known element count; meaningful only when has_extent.
  std::size_t extent_count = 0;
  /// True when the buffer is an array-like object whose size is known (the
  /// paper: "the directive will generate code with a message size equal to
  /// the array size" when count is omitted).
  bool has_extent = false;
  /// Reflected layout for composite element types; nullptr for basic types.
  const TypeLayout* layout = nullptr;
  mpi::BasicType basic = mpi::BasicType::Byte;
  const char* name = "";

  bool is_composite() const noexcept { return layout != nullptr; }

  /// Bytes covered by `count` elements.
  std::size_t span_bytes(std::size_t count) const noexcept {
    return count * element_size;
  }
};

/// The buffers of one sbuf or rbuf clause, in order and contiguous. A clause
/// names one buffer almost always, so a single buffer is held inline and
/// only a list of two or more allocates.
class BufferList {
 public:
  void push_back(const BufferRef& buffer) {
    if (size_ == 0) {
      one_ = buffer;
    } else {
      if (size_ == 1) many_.push_back(one_);
      many_.push_back(buffer);
    }
    ++size_;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const BufferRef* begin() const noexcept {
    return size_ > 1 ? many_.data() : &one_;
  }
  const BufferRef* end() const noexcept { return begin() + size_; }
  const BufferRef& operator[](std::size_t i) const noexcept {
    return begin()[i];
  }
  const BufferRef& front() const noexcept { return *begin(); }

 private:
  BufferRef one_;                ///< the buffer of a one-buffer list
  std::vector<BufferRef> many_;  ///< every buffer, once there are two
  std::size_t size_ = 0;
};

namespace detail {

template <typename T>
concept BasicElement = std::is_arithmetic_v<T>;

template <typename T>
BufferRef make_basic(void* data, std::size_t extent, bool has_extent,
                     const char* name) {
  BufferRef b;
  b.data = data;
  b.element_size = sizeof(T);
  b.extent_count = extent;
  b.has_extent = has_extent;
  b.basic = mpi::basic_type_of<T>();
  b.name = name;
  return b;
}

template <typename T>
BufferRef make_composite(void* data, std::size_t extent, bool has_extent,
                         const char* name) {
  BufferRef b;
  b.data = data;
  b.element_size = sizeof(T);
  b.extent_count = extent;
  b.has_extent = has_extent;
  b.layout = &TypeLayoutOf<T>::get();
  b.name = name;
  return b;
}

}  // namespace detail

/// Describe a buffer for the sbuf/rbuf clauses. Accepted arguments:
///  - `T arr[N]`          basic array, extent known (enables count inference)
///  - `T* p`              basic pointer, extent unknown (count clause needed)
///  - `std::vector<T>&`   extent known
///  - `Matrix<T>&`        whole column-major payload, extent known
///  - reflected struct    one composite element (CID_REFLECT_STRUCT required)
///  - reflected struct*   composite pointer, extent unknown
template <typename A>
BufferRef buf(A&& object, const char* name = "") {
  using U = std::remove_reference_t<A>;
  if constexpr (std::is_array_v<U>) {
    using E = std::remove_extent_t<U>;
    static_assert(std::is_arithmetic_v<E>,
                  "array buffers must have arithmetic elements");
    return detail::make_basic<E>(object, std::extent_v<U>, true, name);
  } else if constexpr (std::is_pointer_v<U>) {
    using E = std::remove_pointer_t<U>;
    if constexpr (std::is_arithmetic_v<E>) {
      return detail::make_basic<E>(object, 0, false, name);
    } else {
      static_assert(Reflected<E>,
                    "composite pointer buffers require CID_REFLECT_STRUCT");
      return detail::make_composite<E>(object, 0, false, name);
    }
  } else if constexpr (Reflected<U>) {
    return detail::make_composite<U>(&object, 1, true, name);
  } else {
    static_assert(sizeof(U) == 0,
                  "unsupported buffer argument; see buf() documentation");
  }
}

/// std::vector of basic elements; extent known.
template <typename T>
  requires std::is_arithmetic_v<T>
BufferRef buf(std::vector<T>& vector, const char* name = "") {
  return detail::make_basic<T>(vector.data(), vector.size(), true, name);
}

/// cid::Matrix payload (whole storage, column-major contiguous).
template <typename T>
  requires std::is_arithmetic_v<T>
BufferRef buf(Matrix<T>& matrix, const char* name = "") {
  return detail::make_basic<T>(matrix.data(), matrix.size(), true, name);
}

/// Basic pointer with an explicitly-known extent (e.g. a slice).
template <typename T>
  requires std::is_arithmetic_v<T>
BufferRef buf_n(T* pointer, std::size_t count, const char* name = "") {
  return detail::make_basic<T>(pointer, count, true, name);
}

}  // namespace cid::core
