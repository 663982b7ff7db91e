// Id-indexed record storage for the Ledger's transactions and contracts.
//
// Ids are handed out consecutively, and a record's lifetime roughly
// follows its id, so the records hang off one vector of slots: the slot of
// id i is slots_[i - base_].  A lookup is an index and a dereference, a
// retirement frees the record, and the retired prefix is reclaimed by
// erasing it once it makes up half the vector (each slot is moved O(1)
// times, amortized).  A slot is `held` from the moment its id is handed
// out until it is released, even while it holds no record yet: a contract
// id is assigned when its deploy transaction is submitted but the
// contract exists only once the deploy confirms, and the prefix must not
// be reclaimed past it in between.  Records released out of id order leave
// empty slots behind the oldest held one, and a long-held record pins
// them -- a population's refunded contracts pin hours of ids -- so a slot
// holds its record through a pointer: an empty slot costs 16 bytes, not a
// record's size, and a record never moves, so a pointer or reference to it
// stays valid until it is released.  An empty slab allocates nothing.
//
// clear() restarts the slab for a new run (ids from 1 again) and keeps
// the records it frees as spares: later push() and fill() calls move into
// them instead of allocating.  A Ledger reused across protocol
// Monte-Carlo samples therefore stores its records without touching the
// heap; release() still frees at once, so a long population run never
// hoards records it retired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace swapgame::chain {

template <class T>
class IdSlab {
  struct Slot {
    std::unique_ptr<T> record;
    bool held = false;
  };

 public:
  /// Forward iteration over the records present, ascending by id.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return *it_->record; }
    pointer operator->() const { return it_->record.get(); }
    const_iterator& operator++() {
      ++it_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return it_ == o.it_; }

   private:
    friend class IdSlab;
    using Base = typename std::vector<Slot>::const_iterator;
    const_iterator(Base it, Base end) : it_(it), end_(end) { skip(); }
    void skip() {
      while (it_ != end_ && !it_->record) ++it_;
    }
    Base it_{};
    Base end_{};
  };

  [[nodiscard]] const_iterator begin() const {
    return {slots_.begin() + static_cast<std::ptrdiff_t>(head_), slots_.end()};
  }
  [[nodiscard]] const_iterator end() const {
    return {slots_.end(), slots_.end()};
  }

  /// The id the next push() or reserve() hands out.
  [[nodiscard]] std::uint64_t next_id() const noexcept {
    return base_ + slots_.size();
  }

  /// Stores `record` under a new id, held, and returns the id.
  std::uint64_t push(T record) {
    slots_.push_back(Slot{store(std::move(record)), true});
    return next_id() - 1;
  }

  /// Hands out a new id, held but empty until fill().
  std::uint64_t reserve() {
    slots_.push_back(Slot{nullptr, true});
    return next_id() - 1;
  }

  /// Stores `record` under the held, empty id `id`.
  void fill(std::uint64_t id, T record) {
    slots_[id - base_].record = store(std::move(record));
  }

  /// The record of `id`, or nullptr when it is unknown, not yet filled or
  /// released.
  [[nodiscard]] T* find(std::uint64_t id) noexcept {
    if (id < base_ + head_ || id >= next_id()) return nullptr;
    return slots_[id - base_].record.get();
  }
  [[nodiscard]] const T* find(std::uint64_t id) const noexcept {
    if (id < base_ + head_ || id >= next_id()) return nullptr;
    return slots_[id - base_].record.get();
  }

  /// Destroys `id`'s record, if any, and lets reclaim() pass its slot.
  void release(std::uint64_t id) noexcept {
    Slot& slot = slots_[id - base_];
    slot.record.reset();
    slot.held = false;
  }

  /// Drops the released prefix (see the file comment).
  void reclaim() {
    while (head_ < slots_.size() && !slots_[head_].held) ++head_;
    if (head_ * 2 >= slots_.size()) {
      slots_.erase(slots_.begin(),
                   slots_.begin() + static_cast<std::ptrdiff_t>(head_));
      base_ += head_;
      head_ = 0;
    }
  }

  /// Releases every id and restarts the ids at 1, keeping the freed
  /// records as spares and the slot vector's capacity (see the file
  /// comment).
  void clear() {
    for (Slot& slot : slots_) {
      if (slot.record) spare_.push_back(std::move(slot.record));
    }
    slots_.clear();
    head_ = 0;
    base_ = 1;
  }

 private:
  /// `record` on the heap: in a spare when there is one.
  std::unique_ptr<T> store(T&& record) {
    if (spare_.empty()) return std::make_unique<T>(std::move(record));
    std::unique_ptr<T> out = std::move(spare_.back());
    spare_.pop_back();
    *out = std::move(record);
    return out;
  }

  std::vector<Slot> slots_;
  std::size_t head_ = 0;    ///< slots before it are all released
  std::uint64_t base_ = 1;  ///< id of slots_[0]; ids start at 1
  std::vector<std::unique_ptr<T>> spare_;  ///< records freed by clear()
};

}  // namespace swapgame::chain
