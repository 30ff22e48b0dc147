// Addressable Fibonacci min-heap (Fredman & Tarjan) over dense integer
// item ids. Same concept as BinaryHeap (see binary_heap.h).
//
// This is the heap the paper's KO/YTO implementations used (LEDA's
// default, §4.2): O(1) amortized insert/decrease_key, O(lg n) amortized
// extract_min. Keys live in one array and the tree links in another,
// both indexed by item id and sized at construction; nothing is
// allocated afterwards.
//
// Only the minimum's leaving, or a rise of its key, consolidates. The
// consolidation detaches the root ring and links its roots in place
// through a fixed table with one slot per degree and an occupancy mask,
// then rebuilds the ring from the occupied slots while it picks the new
// minimum. A raised minimum hands its children to the root ring and
// stays a root through that one consolidation. Raising the key of, or
// erasing, any other item makes it a childless root (its children join
// the root ring and it is cut from its parent), so the minimum stays.
#ifndef MCR_DS_FIBONACCI_HEAP_H
#define MCR_DS_FIBONACCI_HEAP_H

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ds/heap_capacity.h"

namespace mcr {

template <typename Key, typename Compare = std::less<Key>>
class FibonacciHeap {
 public:
  using Item = std::int32_t;

  explicit FibonacciHeap(Item capacity, Compare cmp = Compare())
      : cmp_(cmp), key_(detail::heap_capacity(capacity, "FibonacciHeap")),
        link_(static_cast<std::size_t>(capacity)) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool contains(Item i) const { return link_[idx(i)].in_heap; }
  [[nodiscard]] const Key& key(Item i) const {
    assert(contains(i));
    return key_[idx(i)];
  }

  void insert(Item i, Key k) {
    assert(!contains(i));
    key_[idx(i)] = std::move(k);
    link_[idx(i)] = Link{};
    link_[idx(i)].in_heap = true;
    add_root(i);
    if (min_ == kNil || is_less(i, min_)) min_ = i;
    ++size_;
  }

  [[nodiscard]] Item min_item() const {
    assert(!empty());
    return min_;
  }

  Item extract_min() {
    assert(!empty());
    const Item z = min_;
    promote_children(z);
    unlink(z);
    link_[idx(z)].in_heap = false;
    if (--size_ == 0) {
      min_ = kNil;
    } else {
      consolidate();
    }
    return z;
  }

  void decrease_key(Item i, Key k) {
    assert(contains(i));
    assert(!cmp_(key_[idx(i)], k));
    key_[idx(i)] = std::move(k);
    const Item p = link_[idx(i)].parent;
    if (p != kNil && is_less(i, p)) {
      cut(i, p);
      cascading_cut(p);
    }
    if (is_less(i, min_)) min_ = i;
  }

  /// A larger key for the minimum hands its children to the root ring
  /// and consolidates once, the minimum still a root; any other item
  /// becomes a childless root first, so no consolidation runs.
  void update_key(Item i, Key k) {
    assert(contains(i));
    if (!cmp_(key_[idx(i)], k)) {
      decrease_key(i, std::move(k));
      return;
    }
    if (i == min_) {
      promote_children(i);
      key_[idx(i)] = std::move(k);
      consolidate();
    } else {
      isolate(i);
      key_[idx(i)] = std::move(k);
    }
  }

  /// Erasing the minimum is extract_min; any other item leaves as a
  /// childless root and the minimum stays.
  void erase(Item i) {
    assert(contains(i));
    if (i == min_) {
      extract_min();
      return;
    }
    isolate(i);
    unlink(i);
    link_[idx(i)].in_heap = false;
    --size_;
  }

 private:
  static constexpr Item kNil = -1;
  /// One slot per degree. A degree-d tree holds at least F(d+2) >= phi^d
  /// items, so a heap of under 2^31 items has degrees below 45.
  static constexpr int kDegreeSlots = 64;

  /// An item's place in the forest. left/right link the circular list
  /// of its siblings (or of the roots).
  struct Link {
    Item parent = kNil;
    Item child = kNil;
    Item left = kNil;
    Item right = kNil;
    std::int32_t degree = 0;
    bool marked = false;
    bool in_heap = false;
  };
  static_assert(sizeof(Link) == 24);

  static std::size_t idx(Item i) { return static_cast<std::size_t>(i); }

  [[nodiscard]] bool is_less(Item a, Item b) const { return cmp_(key_[idx(a)], key_[idx(b)]); }

  /// Inserts i before `head` in head's circular list.
  void splice_before(Item head, Item i) {
    Link& h = link_[idx(head)];
    Link& l = link_[idx(i)];
    l.right = head;
    l.left = h.left;
    link_[idx(h.left)].right = i;
    h.left = i;
  }

  /// Makes i (already unlinked, parent cleared) a root.
  void add_root(Item i) {
    if (roots_ == kNil) {
      roots_ = i;
      link_[idx(i)].left = link_[idx(i)].right = i;
    } else {
      splice_before(roots_, i);
    }
  }

  /// Unlinks i from its circular list, moving the list head (roots_ or
  /// its parent's child) off i.
  void unlink(Item i) {
    Link& l = link_[idx(i)];
    Item& head = l.parent == kNil ? roots_ : link_[idx(l.parent)].child;
    if (l.right == i) {
      head = kNil;
    } else {
      link_[idx(l.left)].right = l.right;
      link_[idx(l.right)].left = l.left;
      if (head == i) head = l.right;
    }
  }

  /// Moves z's children, unmarked and parentless, into the root ring as
  /// one block.
  void promote_children(Item z) {
    const Item first = link_[idx(z)].child;
    if (first == kNil) return;
    Item c = first;
    do {
      link_[idx(c)].parent = kNil;
      link_[idx(c)].marked = false;
      c = link_[idx(c)].right;
    } while (c != first);
    link_[idx(z)].child = kNil;
    link_[idx(z)].degree = 0;
    const Item last = link_[idx(first)].left;
    const Item tail = link_[idx(roots_)].left;
    link_[idx(tail)].right = first;
    link_[idx(first)].left = tail;
    link_[idx(last)].right = roots_;
    link_[idx(roots_)].left = last;
  }

  /// Makes i a childless root: its children join the root ring and i is
  /// cut from its parent. Heap order then holds for any key of i.
  void isolate(Item i) {
    promote_children(i);
    const Item p = link_[idx(i)].parent;
    if (p != kNil) {
      cut(i, p);
      cascading_cut(p);
    }
  }

  /// Makes root y a child of root x. The root ring is detached while
  /// this runs, so y leaves no list behind.
  void link_under(Item y, Item x) {
    Link& xl = link_[idx(x)];
    Link& yl = link_[idx(y)];
    yl.parent = x;
    yl.marked = false;
    if (xl.child == kNil) {
      xl.child = y;
      yl.left = yl.right = y;
    } else {
      splice_before(xl.child, y);
    }
    ++xl.degree;
  }

  /// Links roots of equal degree until every degree is held by one root,
  /// then rebuilds the root ring from the table and picks the minimum.
  void consolidate() {
    assert(roots_ != kNil);
    link_[idx(link_[idx(roots_)].left)].right = kNil;  // detach the ring
    std::uint64_t occupied = 0;
    for (Item w = roots_; w != kNil;) {
      Item x = w;
      w = link_[idx(w)].right;
      std::int32_t d = link_[idx(x)].degree;
      while ((occupied >> d & 1U) != 0) {
        Item y = slot_[static_cast<std::size_t>(d)];
        occupied &= ~(std::uint64_t{1} << d);
        if (is_less(y, x)) std::swap(x, y);
        link_under(y, x);
        ++d;
        assert(d < kDegreeSlots);
      }
      slot_[static_cast<std::size_t>(d)] = x;
      occupied |= std::uint64_t{1} << d;
    }
    roots_ = kNil;
    min_ = kNil;
    for (; occupied != 0; occupied &= occupied - 1) {
      const Item r = slot_[static_cast<std::size_t>(std::countr_zero(occupied))];
      add_root(r);
      if (min_ == kNil || is_less(r, min_)) min_ = r;
    }
  }

  void cut(Item i, Item p) {
    unlink(i);
    --link_[idx(p)].degree;
    link_[idx(i)].parent = kNil;
    link_[idx(i)].marked = false;
    add_root(i);
  }

  void cascading_cut(Item i) {
    Item p = link_[idx(i)].parent;
    while (p != kNil) {
      if (!link_[idx(i)].marked) {
        link_[idx(i)].marked = true;
        return;
      }
      cut(i, p);
      i = p;
      p = link_[idx(i)].parent;
    }
  }

  Compare cmp_;
  std::vector<Key> key_;
  std::vector<Link> link_;
  std::array<Item, kDegreeSlots> slot_{};
  Item min_ = kNil;
  Item roots_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace mcr

#endif  // MCR_DS_FIBONACCI_HEAP_H
