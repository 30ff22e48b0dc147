// Addressable Fibonacci min-heap (Fredman & Tarjan) over dense integer
// item ids. Same concept as BinaryHeap (see binary_heap.h).
//
// This is the heap the paper's KO/YTO implementations used (LEDA's
// default, §4.2): O(1) amortized insert/decrease_key, O(lg n) amortized
// extract_min. Raising the key of, or erasing, any item but the minimum
// makes it a childless root and leaves the minimum where it is; only
// the minimum's leaving consolidates the root list. Nodes live in one
// contiguous pool indexed by item id, so no allocation happens after
// construction.
#ifndef MCR_DS_FIBONACCI_HEAP_H
#define MCR_DS_FIBONACCI_HEAP_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace mcr {

template <typename Key, typename Compare = std::less<Key>>
class FibonacciHeap {
 public:
  using Item = std::int32_t;

  explicit FibonacciHeap(Item capacity, Compare cmp = Compare())
      : cmp_(cmp), node_(static_cast<std::size_t>(capacity)) {
    if (capacity < 0) throw std::invalid_argument("FibonacciHeap: negative capacity");
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool contains(Item i) const { return node_[idx(i)].in_heap; }
  [[nodiscard]] const Key& key(Item i) const {
    assert(contains(i));
    return node_[idx(i)].key;
  }

  void insert(Item i, Key k) {
    assert(!contains(i));
    Node& nd = node_[idx(i)];
    nd = Node{};
    nd.key = std::move(k);
    nd.in_heap = true;
    splice_into_roots(i);
    if (min_ == kNil || cmp_(nd.key, node_[idx(min_)].key)) min_ = i;
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
    remove_from_list(z);
    node_[idx(z)].in_heap = false;
    --size_;
    if (size_ == 0) {
      min_ = kNil;
      roots_ = kNil;
    } else {
      min_ = roots_;
      consolidate();
    }
    return z;
  }

  void decrease_key(Item i, Key k) {
    assert(contains(i));
    Node& nd = node_[idx(i)];
    assert(!cmp_(nd.key, k));
    nd.key = std::move(k);
    const Item p = nd.parent;
    if (p != kNil && cmp_(nd.key, node_[idx(p)].key)) {
      cut(i, p);
      cascading_cut(p);
    }
    if (cmp_(nd.key, node_[idx(min_)].key)) min_ = i;
  }

  /// A larger key for the minimum goes through extract_min; any other
  /// item becomes a childless root first, so no consolidation runs.
  void update_key(Item i, Key k) {
    assert(contains(i));
    if (!cmp_(node_[idx(i)].key, k)) {
      decrease_key(i, std::move(k));
    } else if (i == min_) {
      extract_min();
      insert(i, std::move(k));
    } else {
      isolate(i);
      node_[idx(i)].key = std::move(k);
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
    remove_from_list(i);
    node_[idx(i)].in_heap = false;
    --size_;
  }

 private:
  static constexpr Item kNil = -1;

  struct Node {
    Key key{};
    Item parent = kNil;
    Item child = kNil;
    Item left = kNil;
    Item right = kNil;
    std::int32_t degree = 0;
    bool marked = false;
    bool in_heap = false;
  };

  static std::size_t idx(Item i) { return static_cast<std::size_t>(i); }

  /// Moves z's children to the root list.
  void promote_children(Item z) {
    const Item child = node_[idx(z)].child;
    if (child == kNil) return;
    Item c = child;
    do {
      const Item next = node_[idx(c)].right;
      node_[idx(c)].marked = false;
      splice_into_roots(c);
      c = next;
    } while (c != child);
    node_[idx(z)].child = kNil;
    node_[idx(z)].degree = 0;
  }

  /// Makes i a childless root: its children join the root list and i is
  /// cut from its parent. Heap order then holds for any key of i.
  void isolate(Item i) {
    promote_children(i);
    const Item p = node_[idx(i)].parent;
    if (p != kNil) {
      cut(i, p);
      cascading_cut(p);
    }
  }

  /// Inserts i into the root list (circular doubly linked via left/right).
  void splice_into_roots(Item i) {
    Node& nd = node_[idx(i)];
    nd.parent = kNil;
    if (roots_ == kNil) {
      roots_ = i;
      nd.left = nd.right = i;
    } else {
      Node& head = node_[idx(roots_)];
      nd.right = roots_;
      nd.left = head.left;
      node_[idx(head.left)].right = i;
      head.left = i;
    }
  }

  /// Unlinks i from whatever circular list it is in, updating the list
  /// head (roots_ or parent's child pointer).
  void remove_from_list(Item i) {
    Node& nd = node_[idx(i)];
    const Item p = nd.parent;
    if (nd.right == i) {
      // singleton list
      if (p != kNil) {
        node_[idx(p)].child = kNil;
      } else if (roots_ == i) {
        roots_ = kNil;
      }
    } else {
      node_[idx(nd.left)].right = nd.right;
      node_[idx(nd.right)].left = nd.left;
      if (p != kNil) {
        if (node_[idx(p)].child == i) node_[idx(p)].child = nd.right;
      } else if (roots_ == i) {
        roots_ = nd.right;
      }
    }
    nd.left = nd.right = i;
  }

  /// Makes y a child of x (both roots, degree(x) accounting).
  void link(Item y, Item x) {
    remove_from_list(y);
    Node& xn = node_[idx(x)];
    Node& yn = node_[idx(y)];
    yn.parent = x;
    yn.marked = false;
    if (xn.child == kNil) {
      xn.child = y;
      yn.left = yn.right = y;
    } else {
      Node& head = node_[idx(xn.child)];
      yn.right = xn.child;
      yn.left = head.left;
      node_[idx(head.left)].right = y;
      head.left = y;
    }
    ++xn.degree;
  }

  void consolidate() {
    // Collect roots first (the list is rewritten during linking).
    scratch_roots_.clear();
    if (roots_ != kNil) {
      Item r = roots_;
      do {
        scratch_roots_.push_back(r);
        r = node_[idx(r)].right;
      } while (r != roots_);
    }
    degree_table_.assign(64, kNil);
    for (Item w : scratch_roots_) {
      Item x = w;
      std::int32_t d = node_[idx(x)].degree;
      while (degree_table_[static_cast<std::size_t>(d)] != kNil) {
        Item y = degree_table_[static_cast<std::size_t>(d)];
        if (is_less(y, x)) std::swap(x, y);
        link(y, x);
        degree_table_[static_cast<std::size_t>(d)] = kNil;
        d = node_[idx(x)].degree;
      }
      degree_table_[static_cast<std::size_t>(d)] = x;
    }
    // Find the new minimum among roots.
    min_ = kNil;
    for (const Item r : degree_table_) {
      if (r == kNil) continue;
      if (min_ == kNil || is_less(r, min_)) min_ = r;
    }
  }

  [[nodiscard]] bool is_less(Item a, Item b) const {
    return cmp_(node_[idx(a)].key, node_[idx(b)].key);
  }

  void cut(Item i, Item p) {
    remove_from_list(i);
    --node_[idx(p)].degree;
    splice_into_roots(i);
    node_[idx(i)].marked = false;
  }

  void cascading_cut(Item i) {
    Item p = node_[idx(i)].parent;
    while (p != kNil) {
      if (!node_[idx(i)].marked) {
        node_[idx(i)].marked = true;
        return;
      }
      cut(i, p);
      i = p;
      p = node_[idx(i)].parent;
    }
  }

  Compare cmp_;
  std::vector<Node> node_;
  std::vector<Item> degree_table_;
  std::vector<Item> scratch_roots_;
  Item min_ = kNil;
  Item roots_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace mcr

#endif  // MCR_DS_FIBONACCI_HEAP_H
