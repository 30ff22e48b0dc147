// Shared engine for the parametric shortest-path solvers KO and YTO
// (§2.3 of the paper). Internal header.
//
// Both algorithms maintain a tree of shortest paths from a source s in
// G_lambda while lambda grows from -infinity. A path's cost is
// a - lambda*b where a is its weight and b its transit (b = length for
// the mean problem). The tree is optimal for an interval of lambda; the
// next breakpoint is the smallest *key*
//     lambda_e = (a(u) + w(e) - a(v)) / (b(u) + t(e) - b(v))
// over non-tree arcs e = (u,v) whose denominator is positive (only
// those lose slack as lambda grows). Processing a breakpoint pivots v
// onto parent arc e, shifting v's whole subtree by a constant
// (delta_a, delta_b). When a pivot's target v is an ancestor of u the
// tree would close into a cycle: that cycle's mean is exactly lambda_e
// and equals lambda* — the algorithm stops.
//
// The two algorithms differ only in how the event queue is organized:
//   * KO keeps one heap entry per qualifying ARC; every pivot
//     recomputes the keys of all arcs crossing the moved subtree's
//     boundary (delete + insert / update per arc).
//   * YTO keeps one entry per NODE, keyed by the best qualifying
//     incoming arc; a pivot rescans the moved subtree's in-arcs and
//     decreases the keys of the nodes its out-arcs reach. This is the
//     paper's "efficient implementation" — same pivots, far fewer heap
//     operations (especially insertions), which §4.2 measures.
//
// Every queue orders events by (key, head node, arc). The order is
// total, so every heap and both queue layouts take the same minimum:
// KO and YTO make the same pivots, ties included, whatever the heap.
//
// Exactness: keys are exact fractions of 64-bit integers compared by
// 128-bit cross multiplication; the returned cycle mean is exact.
#ifndef MCR_ALGO_PARAMETRIC_H
#define MCR_ALGO_PARAMETRIC_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/critical.h"
#include "core/problem.h"
#include "core/result.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "support/int128.h"
#include "support/int_range.h"
#include "support/op_counters.h"
#include "support/rational.h"

namespace mcr::detail {

/// An exact fraction num/den with den > 0.
struct Frac {
  std::int64_t num = 0;
  std::int64_t den = 1;
};

/// A qualifying arc as the event queues hold it: its key, its head and
/// itself.
struct Event {
  Frac key;
  NodeId head = kInvalidNode;
  ArcId arc = kInvalidArc;
};

/// The one pivot order: key, then head node, then arc.
struct EventLess {
  bool operator()(const Event& x, const Event& y) const {
    const int128 lhs = static_cast<int128>(x.key.num) * y.key.den;
    const int128 rhs = static_cast<int128>(y.key.num) * x.key.den;
    if (lhs != rhs) return lhs < rhs;
    if (x.head != y.head) return x.head < y.head;
    return x.arc < y.arc;
  }
};

/// Shortest-path-tree state shared by KO and YTO.
class ParametricTree {
 public:
  ParametricTree(const Graph& g, ProblemKind kind, OpCounters& counters)
      : g_(g), kind_(kind), counters_(counters) {
    const std::size_t un = static_cast<std::size_t>(g.num_nodes());
    parent_.assign(un, kInvalidArc);
    first_child_.assign(un, kInvalidNode);
    next_sibling_.resize(un);
    prev_sibling_.resize(un);
    in_subtree_.assign(un, 0);
    subtree_.reserve(un);
    init_tree();
  }

  /// Event of arc e, qualifying iff its key's denominator is > 0.
  [[nodiscard]] bool arc_event(ArcId e, Event& out) const {
    const NodeId u = g_.src(e);
    const NodeId v = g_.dst(e);
    if (parent_[static_cast<std::size_t>(v)] == e) return false;  // tree arc
    const std::int64_t den = b_[static_cast<std::size_t>(u)] + arc_transit(g_, kind_, e) -
                             b_[static_cast<std::size_t>(v)];
    if (den <= 0) return false;
    out = Event{Frac{a_[static_cast<std::size_t>(u)] + g_.weight(e) -
                         a_[static_cast<std::size_t>(v)],
                     den},
                v, e};
    return true;
  }

  /// The least event over v's in-arcs; its arc is kInvalidArc when none
  /// qualifies. v's labels and tree arc are read once, and every in-arc
  /// counts as one arc scan.
  [[nodiscard]] Event best_in_event(NodeId v) const {
    const std::size_t sv = static_cast<std::size_t>(v);
    const std::int64_t av = a_[sv];
    const std::int64_t bv = b_[sv];
    const ArcId tree_arc = parent_[sv];
    Event best;
    for (const ArcId e : g_.in_arcs(v)) {
      ++counters_.arc_scans;
      if (e == tree_arc) continue;
      const std::size_t su = static_cast<std::size_t>(g_.src(e));
      const std::int64_t den = b_[su] + arc_transit(g_, kind_, e) - bv;
      if (den <= 0) continue;
      const Event ev{Frac{a_[su] + g_.weight(e) - av, den}, v, e};
      if (best.arc == kInvalidArc || EventLess{}(ev, best)) best = ev;
    }
    return best;
  }

  /// Calls visit(event) for every qualifying arc that leaves the
  /// collected subtree, reading each tail's labels once. Every arc that
  /// leaves counts as one arc scan.
  template <typename Visit>
  void for_each_leaving_event(Visit&& visit) const {
    for (const NodeId x : subtree_) {
      const std::size_t sx = static_cast<std::size_t>(x);
      const std::int64_t ax = a_[sx];
      const std::int64_t bx = b_[sx];
      for (const ArcId out : g_.out_arcs(x)) {
        const NodeId y = g_.dst(out);
        const std::size_t sy = static_cast<std::size_t>(y);
        if (in_subtree_[sy] != 0) continue;
        ++counters_.arc_scans;
        // y's parent is outside the subtree too, so out is not y's tree arc.
        assert(parent_[sy] != out);
        const std::int64_t den = bx + arc_transit(g_, kind_, out) - b_[sy];
        if (den <= 0) continue;
        visit(Event{Frac{ax + g_.weight(out) - a_[sy], den}, y, out});
      }
    }
  }

  /// Marks and collects the subtree rooted at v into `subtree_nodes()`.
  void collect_subtree(NodeId v) {
    subtree_.clear();
    subtree_.push_back(v);
    in_subtree_[static_cast<std::size_t>(v)] = 1;
    for (std::size_t head = 0; head < subtree_.size(); ++head) {
      for (NodeId c = first_child_[static_cast<std::size_t>(subtree_[head])]; c != kInvalidNode;
           c = next_sibling_[static_cast<std::size_t>(c)]) {
        in_subtree_[static_cast<std::size_t>(c)] = 1;
        subtree_.push_back(c);
      }
    }
  }

  void clear_subtree_marks() {
    for (const NodeId x : subtree_) in_subtree_[static_cast<std::size_t>(x)] = 0;
  }

  [[nodiscard]] const std::vector<NodeId>& subtree_nodes() const { return subtree_; }
  [[nodiscard]] bool in_subtree(NodeId v) const {
    return in_subtree_[static_cast<std::size_t>(v)] != 0;
  }

  /// Re-hangs v below arc e = (u, v) and shifts the collected subtree's
  /// labels by the pivot deltas. collect_subtree(v) must have run.
  void apply_pivot(ArcId e) {
    const NodeId u = g_.src(e);
    const NodeId v = g_.dst(e);
    const std::int64_t delta_a = a_[static_cast<std::size_t>(u)] + g_.weight(e) -
                                 a_[static_cast<std::size_t>(v)];
    const std::int64_t delta_b = b_[static_cast<std::size_t>(u)] + arc_transit(g_, kind_, e) -
                                 b_[static_cast<std::size_t>(v)];
    for (const NodeId x : subtree_) {
      a_[static_cast<std::size_t>(x)] += delta_a;
      b_[static_cast<std::size_t>(x)] += delta_b;
    }
    // v is never the root: every node is below node 0, so a pivot onto
    // node 0 closes a cycle instead.
    assert(parent_[static_cast<std::size_t>(v)] != kInvalidArc);
    const NodeId next = next_sibling_[static_cast<std::size_t>(v)];
    const NodeId prev = prev_sibling_[static_cast<std::size_t>(v)];
    if (prev == kInvalidNode) {
      first_child_[static_cast<std::size_t>(g_.src(parent_[static_cast<std::size_t>(v)]))] = next;
    } else {
      next_sibling_[static_cast<std::size_t>(prev)] = next;
    }
    if (next != kInvalidNode) prev_sibling_[static_cast<std::size_t>(next)] = prev;
    hang(v, e);
  }

  /// The cycle closed by pivot arc e = (u, v) with v an ancestor of u:
  /// tree path v -> ... -> u plus e.
  [[nodiscard]] std::vector<ArcId> close_cycle(ArcId e) const {
    const NodeId u = g_.src(e);
    const NodeId v = g_.dst(e);
    std::vector<ArcId> rev;
    NodeId x = u;
    while (x != v) {
      const ArcId pa = parent_[static_cast<std::size_t>(x)];
      assert(pa != kInvalidArc);
      rev.push_back(pa);
      x = g_.src(pa);
    }
    std::vector<ArcId> cycle(rev.rbegin(), rev.rend());
    cycle.push_back(e);
    return cycle;
  }

  [[nodiscard]] const Graph& graph() const { return g_; }
  [[nodiscard]] OpCounters& counters() const { return counters_; }

 private:
  /// Initial tree: shortest paths from node 0 under the lexicographic
  /// cost (transit, weight) — the lambda -> -infinity limit. FIFO label
  /// correcting with each node queued at most once at a time, so a ring
  /// of n slots holds the queue; it ends because every cycle has
  /// positive transit.
  void init_tree() {
    const NodeId n = g_.num_nodes();
    const std::size_t un = static_cast<std::size_t>(n);
    constexpr std::int64_t kInf = kInt64Limit;
    a_.assign(un, kInf);
    b_.assign(un, kInf);
    a_[0] = 0;
    b_[0] = 0;
    const auto step = [un](std::size_t i) { return i + 1 == un ? 0 : i + 1; };
    std::vector<NodeId> ring(un);
    std::vector<std::uint8_t> queued(un, 0);
    ring[0] = 0;
    queued[0] = 1;
    std::size_t front = 0;
    std::size_t back = step(0);
    std::size_t queue_size = 1;
    while (queue_size != 0) {
      const NodeId u = ring[front];
      front = step(front);
      --queue_size;
      queued[static_cast<std::size_t>(u)] = 0;
      for (const ArcId e : g_.out_arcs(u)) {
        ++counters_.arc_scans;
        const NodeId v = g_.dst(e);
        const std::int64_t cb = b_[static_cast<std::size_t>(u)] + arc_transit(g_, kind_, e);
        const std::int64_t ca = a_[static_cast<std::size_t>(u)] + g_.weight(e);
        if (cb < b_[static_cast<std::size_t>(v)] ||
            (cb == b_[static_cast<std::size_t>(v)] && ca < a_[static_cast<std::size_t>(v)])) {
          b_[static_cast<std::size_t>(v)] = cb;
          a_[static_cast<std::size_t>(v)] = ca;
          parent_[static_cast<std::size_t>(v)] = e;
          if (queued[static_cast<std::size_t>(v)] == 0) {
            queued[static_cast<std::size_t>(v)] = 1;
            ring[back] = v;
            back = step(back);
            ++queue_size;
          }
        }
      }
    }
    for (NodeId v = 1; v < n; ++v) {
      const ArcId pa = parent_[static_cast<std::size_t>(v)];
      if (pa == kInvalidArc) {
        throw std::invalid_argument("parametric solver: graph is not strongly connected");
      }
      hang(v, pa);
    }
  }

  /// Makes v, detached from any child list, the first child of e's tail.
  void hang(NodeId v, ArcId e) {
    const std::size_t u = static_cast<std::size_t>(g_.src(e));
    const NodeId old_first = first_child_[u];
    parent_[static_cast<std::size_t>(v)] = e;
    prev_sibling_[static_cast<std::size_t>(v)] = kInvalidNode;
    next_sibling_[static_cast<std::size_t>(v)] = old_first;
    if (old_first != kInvalidNode) prev_sibling_[static_cast<std::size_t>(old_first)] = v;
    first_child_[u] = v;
  }

  const Graph& g_;
  ProblemKind kind_;
  OpCounters& counters_;
  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
  std::vector<ArcId> parent_;
  // Child lists as sibling links: first child, next and previous sibling
  // (kInvalidNode ends a list).
  std::vector<NodeId> first_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> prev_sibling_;
  std::vector<NodeId> subtree_;
  std::vector<std::uint8_t> in_subtree_;
};

/// The range rule (support/int_range.h), checked before the tree is
/// built: labels sum a tree path (under n arcs) and keys and pivot deltas
/// add an arc and subtract a label, so all stay within 2n * max(max|w|,
/// T), T = 1 (mean) or the total transit (ratio). Out of range, the
/// component goes to the exact finish.
inline bool finish_if_out_of_range(const Graph& g, ProblemKind kind, CycleResult& result) {
  const int128 t = kind == ProblemKind::kCycleMean ? 1 : g.total_transit();
  if (fits_int64(2 * static_cast<int128>(g.num_nodes()) * std::max(max_abs_weight(g), t))) {
    return false;
  }
  ++result.counters.numeric_promotions;
  finish_exact(g, kind, {}, result);
  return true;
}

/// KO: one heap entry per qualifying arc.
template <template <typename, typename> class Heap>
CycleResult solve_ko_with(const Graph& g, ProblemKind kind) {
  CycleResult result;
  if (finish_if_out_of_range(g, kind, result)) return result;
  ParametricTree tree(g, kind, result.counters);
  Heap<Event, EventLess> heap(g.num_arcs());

  const auto refresh_arc = [&](ArcId e) {
    ++result.counters.arc_scans;
    Event ev;
    if (tree.arc_event(e, ev)) {
      if (heap.contains(e)) {
        heap.update_key(e, ev);
        ++result.counters.heap_decrease_keys;
      } else {
        heap.insert(e, ev);
        ++result.counters.heap_inserts;
      }
    } else if (heap.contains(e)) {
      heap.erase(e);
      ++result.counters.heap_delete_mins;
    }
  };

  for (ArcId e = 0; e < g.num_arcs(); ++e) refresh_arc(e);

  // Hoist the sink lookup out of the pivot loop: pivots are the whole
  // running time here, so the disabled path must stay one register test.
  obs::TraceSink* const sink = obs::current_sink();
  while (!heap.empty()) {
    ++result.counters.iterations;
    if (sink != nullptr) {
      sink->instant(obs::EventKind::kIteration, "ko.pivot",
                    static_cast<std::int64_t>(result.counters.iterations));
    }
    const Event ev = heap.key(heap.min_item());
    heap.extract_min();
    ++result.counters.heap_delete_mins;

    const ArcId e = ev.arc;
    const NodeId u = g.src(e);
    tree.collect_subtree(ev.head);
    if (tree.in_subtree(u)) {
      // Pivot closes a cycle: lambda* = key.
      tree.clear_subtree_marks();
      result.has_cycle = true;
      result.value = Rational(ev.key.num, ev.key.den);
      result.cycle = tree.close_cycle(e);
      return result;
    }
    tree.apply_pivot(e);
    // Keys change exactly for arcs with one endpoint in the subtree
    // (e itself, now a tree arc, is one of the in-arcs).
    for (const NodeId x : tree.subtree_nodes()) {
      for (const ArcId out : g.out_arcs(x)) {
        if (!tree.in_subtree(g.dst(out))) refresh_arc(out);
      }
      for (const ArcId in : g.in_arcs(x)) {
        if (!tree.in_subtree(g.src(in))) refresh_arc(in);
      }
    }
    tree.clear_subtree_marks();
  }
  throw std::logic_error("KO: event queue exhausted without closing a cycle");
}

/// YTO: one heap entry per node, keyed by its best qualifying in-arc.
template <template <typename, typename> class Heap>
CycleResult solve_yto_with(const Graph& g, ProblemKind kind) {
  CycleResult result;
  if (finish_if_out_of_range(g, kind, result)) return result;
  ParametricTree tree(g, kind, result.counters);
  Heap<Event, EventLess> heap(g.num_nodes());

  const auto refresh_node = [&](NodeId v) {
    const Event best = tree.best_in_event(v);
    if (best.arc != kInvalidArc) {
      if (heap.contains(v)) {
        heap.update_key(v, best);
        ++result.counters.heap_decrease_keys;
      } else {
        heap.insert(v, best);
        ++result.counters.heap_inserts;
      }
    } else if (heap.contains(v)) {
      heap.erase(v);
      ++result.counters.heap_delete_mins;
    }
  };

  for (NodeId v = 0; v < g.num_nodes(); ++v) refresh_node(v);

  // Same hoist as KO: keep the untraced pivot loop free of TLS loads.
  obs::TraceSink* const sink = obs::current_sink();
  while (!heap.empty()) {
    ++result.counters.iterations;
    if (sink != nullptr) {
      sink->instant(obs::EventKind::kIteration, "yto.pivot",
                    static_cast<std::int64_t>(result.counters.iterations));
    }
    const Event ev = heap.key(heap.min_item());
    const ArcId e = ev.arc;
    const NodeId u = g.src(e);
    tree.collect_subtree(ev.head);
    if (tree.in_subtree(u)) {
      tree.clear_subtree_marks();
      result.has_cycle = true;
      result.value = Rational(ev.key.num, ev.key.den);
      result.cycle = tree.close_cycle(e);
      return result;
    }
    tree.apply_pivot(e);
    // The pivot shifts the subtree by (delta_a, delta_b) with delta_b > 0
    // and delta_a = lambda * delta_b, lambda = ev's key. An arc leaving
    // the subtree keeps its reduced cost at lambda and gains delta_b of
    // denominator, so its key falls toward lambda or starts to qualify;
    // no other in-arc of its head y moves. One look per such arc keeps
    // y's key exact: insert, or decrease-key when the arc is y's held
    // arc or beats it.
    tree.for_each_leaving_event([&](const Event& leaving) {
      const NodeId y = leaving.head;
      if (!heap.contains(y)) {
        heap.insert(y, leaving);
        ++result.counters.heap_inserts;
      } else if (const Event& held = heap.key(y);
                 held.arc == leaving.arc || EventLess{}(leaving, held)) {
        heap.decrease_key(y, leaving);
        ++result.counters.heap_decrease_keys;
      }
    });
    // The subtree's in-arcs from outside lost denominator, so their keys
    // rose or stopped qualifying: rescan every subtree node, while marked.
    for (const NodeId x : tree.subtree_nodes()) refresh_node(x);
    tree.clear_subtree_marks();
  }
  throw std::logic_error("YTO: event queue exhausted without closing a cycle");
}

}  // namespace mcr::detail

#endif  // MCR_ALGO_PARAMETRIC_H
