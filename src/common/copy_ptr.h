#ifndef ALDSP_COMMON_COPY_PTR_H_
#define ALDSP_COMMON_COPY_PTR_H_

#include <memory>
#include <utility>

namespace aldsp {

/// An owning pointer with value semantics: copying it copies the pointee.
/// A copyable struct can keep members that few instances use out of line
/// behind one of these and stay as cheap to copy, compare by field and
/// reason about as if the members were inline. Null until first written.
template <typename T>
class CopyPtr {
 public:
  CopyPtr() = default;
  CopyPtr(const CopyPtr& other)
      : ptr_(other.ptr_ ? std::make_unique<T>(*other.ptr_) : nullptr) {}
  CopyPtr(CopyPtr&&) noexcept = default;
  CopyPtr& operator=(const CopyPtr& other) {
    if (this != &other) {
      ptr_ = other.ptr_ ? std::make_unique<T>(*other.ptr_) : nullptr;
    }
    return *this;
  }
  CopyPtr& operator=(CopyPtr&&) noexcept = default;

  explicit operator bool() const { return ptr_ != nullptr; }
  const T* get() const { return ptr_.get(); }
  T* get() { return ptr_.get(); }
  const T* operator->() const { return ptr_.get(); }
  T* operator->() { return ptr_.get(); }
  const T& operator*() const { return *ptr_; }
  T& operator*() { return *ptr_; }

  /// The pointee, default-constructed on first use.
  T& Mutable() {
    if (!ptr_) ptr_ = std::make_unique<T>();
    return *ptr_;
  }

 private:
  std::unique_ptr<T> ptr_;
};

}  // namespace aldsp

#endif  // ALDSP_COMMON_COPY_PTR_H_
