// Typed tests exercising the shared addressable-heap concept across the
// binary, pairing, and Fibonacci heaps, including randomized
// differential tests against a sorted-container reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ds/binary_heap.h"
#include "ds/fibonacci_heap.h"
#include "ds/pairing_heap.h"
#include "support/prng.h"

namespace mcr {
namespace {

template <typename H>
class HeapTest : public ::testing::Test {};

using HeapTypes = ::testing::Types<BinaryHeap<std::int64_t>, PairingHeap<std::int64_t>,
                                   FibonacciHeap<std::int64_t>>;
TYPED_TEST_SUITE(HeapTest, HeapTypes);

TYPED_TEST(HeapTest, StartsEmpty) {
  TypeParam h(10);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_FALSE(h.contains(3));
}

TYPED_TEST(HeapTest, InsertAndMin) {
  TypeParam h(10);
  h.insert(3, 30);
  h.insert(1, 10);
  h.insert(2, 20);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.min_item(), 1);
  EXPECT_EQ(h.key(3), 30);
  EXPECT_TRUE(h.contains(2));
}

TYPED_TEST(HeapTest, ExtractMinOrdersKeys) {
  TypeParam h(10);
  const std::vector<std::int64_t> keys{50, 20, 90, 10, 70};
  for (std::int32_t i = 0; i < 5; ++i) h.insert(i, keys[static_cast<std::size_t>(i)]);
  std::vector<std::int64_t> got;
  while (!h.empty()) got.push_back(keys[static_cast<std::size_t>(h.extract_min())]);
  EXPECT_EQ(got, (std::vector<std::int64_t>{10, 20, 50, 70, 90}));
}

TYPED_TEST(HeapTest, ExtractRemovesItem) {
  TypeParam h(4);
  h.insert(0, 5);
  h.insert(1, 6);
  EXPECT_EQ(h.extract_min(), 0);
  EXPECT_FALSE(h.contains(0));
  EXPECT_EQ(h.size(), 1u);
}

TYPED_TEST(HeapTest, DecreaseKeyPromotes) {
  TypeParam h(4);
  h.insert(0, 10);
  h.insert(1, 20);
  h.insert(2, 30);
  h.decrease_key(2, 5);
  EXPECT_EQ(h.min_item(), 2);
  EXPECT_EQ(h.key(2), 5);
}

TYPED_TEST(HeapTest, DecreaseKeyToEqualIsAllowed) {
  TypeParam h(2);
  h.insert(0, 10);
  h.decrease_key(0, 10);
  EXPECT_EQ(h.key(0), 10);
}

TYPED_TEST(HeapTest, UpdateKeyBothDirections) {
  TypeParam h(4);
  h.insert(0, 10);
  h.insert(1, 20);
  h.update_key(0, 30);  // increase
  EXPECT_EQ(h.min_item(), 1);
  h.update_key(0, 1);  // decrease
  EXPECT_EQ(h.min_item(), 0);
}

TYPED_TEST(HeapTest, EraseMiddle) {
  TypeParam h(5);
  for (std::int32_t i = 0; i < 5; ++i) h.insert(i, 10 * (i + 1));
  h.erase(2);
  EXPECT_FALSE(h.contains(2));
  EXPECT_EQ(h.size(), 4u);
  std::vector<std::int32_t> got;
  while (!h.empty()) got.push_back(h.extract_min());
  EXPECT_EQ(got, (std::vector<std::int32_t>{0, 1, 3, 4}));
}

TYPED_TEST(HeapTest, EraseMin) {
  TypeParam h(3);
  h.insert(0, 1);
  h.insert(1, 2);
  h.erase(0);
  EXPECT_EQ(h.min_item(), 1);
}

TYPED_TEST(HeapTest, EraseLastLeavesEmpty) {
  TypeParam h(2);
  h.insert(1, 7);
  h.erase(1);
  EXPECT_TRUE(h.empty());
}

TYPED_TEST(HeapTest, ReinsertAfterExtract) {
  TypeParam h(2);
  h.insert(0, 5);
  (void)h.extract_min();
  h.insert(0, 3);
  EXPECT_EQ(h.min_item(), 0);
  EXPECT_EQ(h.key(0), 3);
}

TYPED_TEST(HeapTest, DuplicateKeysAllowed) {
  TypeParam h(4);
  for (std::int32_t i = 0; i < 4; ++i) h.insert(i, 42);
  std::set<std::int32_t> items;
  while (!h.empty()) items.insert(h.extract_min());
  EXPECT_EQ(items.size(), 4u);
}

TYPED_TEST(HeapTest, NegativeCapacityThrowsInvalidArgument) {
  EXPECT_THROW(TypeParam(-1), std::invalid_argument);
  EXPECT_THROW(TypeParam(std::numeric_limits<std::int32_t>::min()), std::invalid_argument);
}

TYPED_TEST(HeapTest, RandomizedDifferentialAgainstReferenceModel) {
  constexpr std::int32_t kCapacity = 200;
  TypeParam h(kCapacity);
  // Reference: item -> key plus an ordered (key, item) set.
  std::map<std::int32_t, std::int64_t> ref;
  std::set<std::pair<std::int64_t, std::int32_t>> ordered;
  Prng rng(12345);

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op < 4) {  // insert
      const std::int32_t item = static_cast<std::int32_t>(rng.uniform_int(0, kCapacity - 1));
      if (ref.count(item)) continue;
      const std::int64_t key = rng.uniform_int(-1000, 1000);
      h.insert(item, key);
      ref[item] = key;
      ordered.insert({key, item});
    } else if (op < 6) {  // decrease_key
      if (ref.empty()) continue;
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1)));
      const std::int64_t nk = it->second - rng.uniform_int(0, 100);
      h.decrease_key(it->first, nk);
      ordered.erase({it->second, it->first});
      ordered.insert({nk, it->first});
      it->second = nk;
    } else if (op < 7) {  // update_key (either direction)
      if (ref.empty()) continue;
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1)));
      const std::int64_t nk = rng.uniform_int(-1000, 1000);
      h.update_key(it->first, nk);
      ordered.erase({it->second, it->first});
      ordered.insert({nk, it->first});
      it->second = nk;
    } else if (op < 8) {  // erase
      if (ref.empty()) continue;
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1)));
      h.erase(it->first);
      ordered.erase({it->second, it->first});
      ref.erase(it);
    } else {  // extract_min
      if (ref.empty()) {
        EXPECT_TRUE(h.empty());
        continue;
      }
      const std::int64_t min_key = ordered.begin()->first;
      const std::int32_t got = h.extract_min();
      // Any item with the minimal key is acceptable.
      EXPECT_EQ(ref.at(got), min_key) << "step " << step;
      ordered.erase({ref.at(got), got});
      ref.erase(got);
    }
    ASSERT_EQ(h.size(), ref.size());
    if (!ref.empty()) {
      EXPECT_EQ(h.key(h.min_item()), ordered.begin()->first);
    }
  }
}

// The parametric solvers' keys are totally ordered, so every heap must
// name the same minimum. The step mix leans on the paths that reshape a
// heap without extracting: key increases, and erases of non-minimum
// items picked near the minimum, where a Fibonacci heap's roots hold
// their children after a consolidation.
template <typename H>
class TotalOrderHeapTest : public ::testing::Test {};

using PairKey = std::pair<std::int64_t, std::int32_t>;
using TotalOrderHeapTypes = ::testing::Types<BinaryHeap<PairKey>, PairingHeap<PairKey>,
                                             FibonacciHeap<PairKey>>;
TYPED_TEST_SUITE(TotalOrderHeapTest, TotalOrderHeapTypes);

TYPED_TEST(TotalOrderHeapTest, MinimumAndDrainMatchTheReferenceModel) {
  constexpr std::int32_t kCapacity = 300;
  TypeParam h(kCapacity);
  std::map<std::int32_t, PairKey> ref;
  std::set<PairKey> ordered;  // a key's second part is its item: all distinct
  Prng rng(2024);
  const auto set_key = [&](std::int32_t item, std::int64_t value) {
    if (ref.count(item)) ordered.erase(ref.at(item));
    ref[item] = {value, item};
    ordered.insert(ref.at(item));
  };
  // An item near the minimum (rank 1..4) or anywhere, never the minimum.
  const auto pick_non_min = [&]() -> std::int32_t {
    const auto size = static_cast<std::int64_t>(ordered.size());
    const std::int64_t top = rng.uniform_int(0, 1) == 0 ? std::min<std::int64_t>(size - 1, 4)
                                                        : size - 1;
    return std::next(ordered.begin(), static_cast<long>(rng.uniform_int(1, top)))->second;
  };

  for (int step = 0; step < 30000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 19));
    if (op < 6 || ref.size() < 3) {  // insert
      const auto item = static_cast<std::int32_t>(rng.uniform_int(0, kCapacity - 1));
      if (ref.count(item)) continue;
      const std::int64_t value = rng.uniform_int(0, 40);  // first parts tie often
      h.insert(item, {value, item});
      set_key(item, value);
    } else if (op < 8) {  // extract_min
      const std::int32_t got = h.extract_min();
      ASSERT_EQ(got, ordered.begin()->second) << "step " << step;
      ordered.erase(ordered.begin());
      ref.erase(got);
    } else if (op < 13) {  // update_key increase, of the minimum one time in five
      const std::int32_t item = op == 12 ? ordered.begin()->second : pick_non_min();
      const std::int64_t value = ref.at(item).first + rng.uniform_int(1, 20);
      h.update_key(item, {value, item});
      set_key(item, value);
    } else if (op < 17) {  // erase a non-minimum item
      const std::int32_t item = pick_non_min();
      h.erase(item);
      ordered.erase(ref.at(item));
      ref.erase(item);
    } else {  // decrease_key of any item
      const auto rank = rng.uniform_int(0, static_cast<std::int64_t>(ordered.size()) - 1);
      const std::int32_t item = std::next(ordered.begin(), static_cast<long>(rank))->second;
      const std::int64_t value = ref.at(item).first - rng.uniform_int(0, 10);
      h.decrease_key(item, {value, item});
      set_key(item, value);
    }
    ASSERT_EQ(h.size(), ref.size()) << "step " << step;
    if (!ref.empty()) {
      ASSERT_EQ(h.min_item(), ordered.begin()->second) << "step " << step;
    }
  }
  std::vector<std::int32_t> drained;
  while (!h.empty()) drained.push_back(h.extract_min());
  std::vector<std::int32_t> expected;
  for (const PairKey& key : ordered) expected.push_back(key.second);
  EXPECT_EQ(drained, expected);
}

// The YTO step mix of bench_micro's BM_HeapEventPattern at a size where
// a Fibonacci heap's trees grow deep: the first extract_min consolidates
// 16,383 singleton roots, and each round raises the minimum (one more
// consolidation), raises or erases two other items, and decreases three
// keys, never below the last minimum's value.
TYPED_TEST(TotalOrderHeapTest, EventRoundsOnSixteenThousandItemsMatchTheReferenceModel) {
  constexpr std::int32_t kCapacity = 1 << 14;
  constexpr std::int64_t kSpread = 1 << 20;
  TypeParam h(kCapacity);
  std::vector<PairKey> ref(kCapacity);
  std::vector<bool> in_ref(kCapacity, false);
  std::set<PairKey> ordered;
  Prng rng(77);
  const auto set_key = [&](std::int32_t item, std::int64_t value) {
    const auto slot = static_cast<std::size_t>(item);
    if (in_ref[slot]) ordered.erase(ref[slot]);
    ref[slot] = {value, item};
    in_ref[slot] = true;
    ordered.insert(ref[slot]);
  };
  const auto remove = [&](std::int32_t item) {
    const auto slot = static_cast<std::size_t>(item);
    ordered.erase(ref[slot]);
    in_ref[slot] = false;
  };

  for (std::int32_t i = 0; i < kCapacity; ++i) {
    const std::int64_t value = rng.uniform_int(0, kSpread);
    h.insert(i, {value, i});
    set_key(i, value);
  }
  const std::int32_t first = h.extract_min();
  ASSERT_EQ(first, ordered.begin()->second);
  remove(first);

  for (std::int32_t round = 0; round < 2 * kCapacity; ++round) {
    const std::int32_t top = h.min_item();
    ASSERT_EQ(top, ordered.begin()->second) << "round " << round;
    const std::int64_t lambda = ref[static_cast<std::size_t>(top)].first;
    const std::int64_t raised = lambda + rng.uniform_int(1, kSpread);
    h.update_key(top, {raised, top});
    set_key(top, raised);
    for (int k = 0; k < 2; ++k) {
      const auto i = static_cast<std::int32_t>(rng.uniform_int(0, kCapacity - 1));
      const std::int64_t value = ref[static_cast<std::size_t>(i)].first;
      if (!h.contains(i)) {
        const std::int64_t fresh = lambda + rng.uniform_int(0, kSpread);
        h.insert(i, {fresh, i});
        set_key(i, fresh);
      } else if (i != h.min_item() && rng.uniform_int(0, 3) == 0) {
        h.erase(i);
        remove(i);
      } else {
        const std::int64_t up = value + rng.uniform_int(1, kSpread / 64);
        h.update_key(i, {up, i});
        set_key(i, up);
      }
    }
    for (int k = 0; k < 3; ++k) {
      const auto i = static_cast<std::int32_t>(rng.uniform_int(0, kCapacity - 1));
      if (!h.contains(i)) continue;
      const std::int64_t down = std::max(
          lambda, ref[static_cast<std::size_t>(i)].first - rng.uniform_int(0, kSpread / 64));
      h.decrease_key(i, {down, i});
      set_key(i, down);
    }
    ASSERT_EQ(h.size(), ordered.size()) << "round " << round;
    ASSERT_EQ(h.min_item(), ordered.begin()->second) << "round " << round;
  }
  std::vector<std::int32_t> drained;
  while (!h.empty()) drained.push_back(h.extract_min());
  std::vector<std::int32_t> expected;
  for (const PairKey& key : ordered) expected.push_back(key.second);
  EXPECT_EQ(drained, expected);
}

}  // namespace
}  // namespace mcr
