// Addressable pairing min-heap over dense integer item ids. Same
// concept as BinaryHeap (see binary_heap.h).
//
// Pairing heaps are the usual practical winner among mergeable heaps;
// they are included so the heap ablation can test whether the paper's
// Fibonacci-heap choice mattered for KO/YTO.
#ifndef MCR_DS_PAIRING_HEAP_H
#define MCR_DS_PAIRING_HEAP_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "ds/heap_capacity.h"

namespace mcr {

template <typename Key, typename Compare = std::less<Key>>
class PairingHeap {
 public:
  using Item = std::int32_t;

  explicit PairingHeap(Item capacity, Compare cmp = Compare())
      : cmp_(cmp), node_(detail::heap_capacity(capacity, "PairingHeap")) {}

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
    root_ = (root_ == kNil) ? i : meld(root_, i);
    ++size_;
  }

  [[nodiscard]] Item min_item() const {
    assert(!empty());
    return root_;
  }

  Item extract_min() {
    assert(!empty());
    const Item z = root_;
    root_ = merge_pairs(node_[idx(z)].child);
    if (root_ != kNil) {
      node_[idx(root_)].parent = kNil;
      node_[idx(root_)].sibling = kNil;
    }
    node_[idx(z)].in_heap = false;
    --size_;
    return z;
  }

  void decrease_key(Item i, Key k) {
    assert(contains(i));
    Node& nd = node_[idx(i)];
    assert(!cmp_(nd.key, k));
    nd.key = std::move(k);
    if (i == root_) return;
    detach(i);
    root_ = meld(root_, i);
  }

  void update_key(Item i, Key k) {
    assert(contains(i));
    if (!cmp_(node_[idx(i)].key, k)) {
      decrease_key(i, std::move(k));
    } else {
      erase(i);
      insert(i, std::move(k));
    }
  }

  void erase(Item i) {
    assert(contains(i));
    if (i == root_) {
      extract_min();
      return;
    }
    detach(i);
    const Item sub = merge_pairs(node_[idx(i)].child);
    if (sub != kNil) {
      node_[idx(sub)].parent = kNil;
      node_[idx(sub)].sibling = kNil;
      root_ = meld(root_, sub);
    }
    node_[idx(i)].in_heap = false;
    --size_;
  }

 private:
  static constexpr Item kNil = -1;

  struct Node {
    Key key{};
    Item child = kNil;
    Item sibling = kNil;
    Item parent = kNil;  // actual parent or left sibling (for detach)
    bool is_left_child = false;
    bool in_heap = false;
  };

  static std::size_t idx(Item i) { return static_cast<std::size_t>(i); }

  /// Melds two heap roots; returns the new root.
  Item meld(Item a, Item b) {
    if (a == kNil) return b;
    if (b == kNil) return a;
    if (cmp_(node_[idx(b)].key, node_[idx(a)].key)) std::swap(a, b);
    // b becomes the leftmost child of a.
    Node& an = node_[idx(a)];
    Node& bn = node_[idx(b)];
    bn.sibling = an.child;
    if (an.child != kNil) {
      node_[idx(an.child)].parent = b;
      node_[idx(an.child)].is_left_child = false;
    }
    bn.parent = a;
    bn.is_left_child = true;
    an.child = b;
    return a;
  }

  /// Unlinks i from its parent/sibling chain (i must not be the root).
  void detach(Item i) {
    Node& nd = node_[idx(i)];
    if (nd.is_left_child) {
      node_[idx(nd.parent)].child = nd.sibling;
    } else {
      node_[idx(nd.parent)].sibling = nd.sibling;
    }
    if (nd.sibling != kNil) {
      node_[idx(nd.sibling)].parent = nd.parent;
      node_[idx(nd.sibling)].is_left_child = nd.is_left_child;
    }
    nd.parent = kNil;
    nd.sibling = kNil;
  }

  /// Two-pass pairing of a child list; returns the resulting root.
  Item merge_pairs(Item first) {
    if (first == kNil) return kNil;
    // Pass 1: meld pairs left to right.
    scratch_.clear();
    Item cur = first;
    while (cur != kNil) {
      const Item a = cur;
      const Item b = node_[idx(a)].sibling;
      Item next = kNil;
      if (b != kNil) next = node_[idx(b)].sibling;
      node_[idx(a)].sibling = kNil;
      node_[idx(a)].parent = kNil;
      if (b != kNil) {
        node_[idx(b)].sibling = kNil;
        node_[idx(b)].parent = kNil;
        scratch_.push_back(meld(a, b));
      } else {
        scratch_.push_back(a);
      }
      cur = next;
    }
    // Pass 2: meld right to left.
    Item result = scratch_.back();
    for (std::size_t i = scratch_.size() - 1; i-- > 0;) {
      result = meld(scratch_[i], result);
    }
    return result;
  }

  Compare cmp_;
  std::vector<Node> node_;
  std::vector<Item> scratch_;
  Item root_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace mcr

#endif  // MCR_DS_PAIRING_HEAP_H
