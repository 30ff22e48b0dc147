// Addressable binary min-heap over dense integer item ids.
//
// All three heaps in src/ds (binary, pairing, Fibonacci) share one
// concept so the parametric shortest-path solvers (KO, YTO) can be
// instantiated with any of them:
//
//   Heap(capacity)            items are ids in [0, capacity)
//   insert(item, key)
//   decrease_key(item, key)   key must not increase
//   update_key(item, key)     any direction (erase+insert semantics)
//   extract_min() -> item
//   erase(item)
//   min_item(), key(item), contains(item), empty(), size()
//
// The paper used LEDA's Fibonacci heaps for both KO and YTO; the heap
// ablation bench (bench_ablation_heaps) measures what that choice cost.
#ifndef MCR_DS_BINARY_HEAP_H
#define MCR_DS_BINARY_HEAP_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "ds/heap_capacity.h"

namespace mcr {

template <typename Key, typename Compare = std::less<Key>>
class BinaryHeap {
 public:
  using Item = std::int32_t;

  explicit BinaryHeap(Item capacity, Compare cmp = Compare())
      : cmp_(cmp), pos_(detail::heap_capacity(capacity, "BinaryHeap"), kAbsent),
        key_(static_cast<std::size_t>(capacity)) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool contains(Item i) const { return pos_[idx(i)] != kAbsent; }
  [[nodiscard]] const Key& key(Item i) const {
    assert(contains(i));
    return key_[idx(i)];
  }

  void insert(Item i, Key k) {
    assert(!contains(i));
    key_[idx(i)] = std::move(k);
    pos_[idx(i)] = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(i);
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] Item min_item() const {
    assert(!empty());
    return heap_.front();
  }

  Item extract_min() {
    assert(!empty());
    const Item top = heap_.front();
    remove_at(0);
    return top;
  }

  void decrease_key(Item i, Key k) {
    assert(contains(i));
    assert(!cmp_(key_[idx(i)], k));  // new key must not be greater
    key_[idx(i)] = std::move(k);
    sift_up(static_cast<std::size_t>(pos_[idx(i)]));
  }

  void update_key(Item i, Key k) {
    assert(contains(i));
    const bool down = cmp_(key_[idx(i)], k);
    key_[idx(i)] = std::move(k);
    const auto p = static_cast<std::size_t>(pos_[idx(i)]);
    if (down) {
      sift_down(p);
    } else {
      sift_up(p);
    }
  }

  void erase(Item i) {
    assert(contains(i));
    remove_at(static_cast<std::size_t>(pos_[idx(i)]));
  }

 private:
  static constexpr std::int32_t kAbsent = -1;

  static std::size_t idx(Item i) { return static_cast<std::size_t>(i); }

  [[nodiscard]] bool less(Item a, Item b) const { return cmp_(key_[idx(a)], key_[idx(b)]); }

  void place(std::size_t slot, Item i) {
    heap_[slot] = i;
    pos_[idx(i)] = static_cast<std::int32_t>(slot);
  }

  void sift_up(std::size_t slot) {
    const Item moving = heap_[slot];
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (!cmp_(key_[idx(moving)], key_[idx(heap_[parent])])) break;
      place(slot, heap_[parent]);
      slot = parent;
    }
    place(slot, moving);
  }

  void sift_down(std::size_t slot) {
    const Item moving = heap_[slot];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * slot + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!cmp_(key_[idx(heap_[child])], key_[idx(moving)])) break;
      place(slot, heap_[child]);
      slot = child;
    }
    place(slot, moving);
  }

  void remove_at(std::size_t slot) {
    const Item victim = heap_[slot];
    const Item last = heap_.back();
    heap_.pop_back();
    pos_[idx(victim)] = kAbsent;
    if (victim == last) return;
    place(slot, last);
    // The displaced element may need to move either way.
    sift_up(static_cast<std::size_t>(pos_[idx(last)]));
    sift_down(static_cast<std::size_t>(pos_[idx(last)]));
  }

  Compare cmp_;
  std::vector<Item> heap_;
  std::vector<std::int32_t> pos_;
  std::vector<Key> key_;
};

}  // namespace mcr

#endif  // MCR_DS_BINARY_HEAP_H
