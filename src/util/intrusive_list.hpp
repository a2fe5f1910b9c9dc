#pragma once

namespace exasim::util {

/// Doubly linked list threaded through two pointer members of T: linking
/// and unlinking never allocate, and an element knows its neighbours, so
/// erase is O(1). The list does not own its elements. An element may sit in
/// several lists at once, one per pair of link members.
template <class T, T* T::*Prev, T* T::*Next>
class IntrusiveList {
 public:
  /// First element; continue through the Next member.
  T* front() const { return head_; }

  void push_back(T* x) {
    x->*Prev = tail_;
    x->*Next = nullptr;
    if (tail_ != nullptr) {
      tail_->*Next = x;
    } else {
      head_ = x;
    }
    tail_ = x;
  }

  /// Unlinks x, which must be in this list.
  void erase(T* x) {
    T* prev = x->*Prev;
    T* next = x->*Next;
    if (prev != nullptr) {
      prev->*Next = next;
    } else {
      head_ = next;
    }
    if (next != nullptr) {
      next->*Prev = prev;
    } else {
      tail_ = prev;
    }
    x->*Prev = nullptr;
    x->*Next = nullptr;
  }

 private:
  T* head_ = nullptr;
  T* tail_ = nullptr;
};

}  // namespace exasim::util
