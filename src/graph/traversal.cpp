#include "graph/traversal.h"

#include <numeric>
#include <stdexcept>

namespace mcr {

namespace {

void check_node(const Graph& g, NodeId v) {
  if (v < 0 || v >= g.num_nodes()) throw std::out_of_range("traversal: node out of range");
}

}  // namespace

std::vector<NodeId> bfs_order(const Graph& g, NodeId source) {
  check_node(g, source);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(g.num_nodes()));
  order.push_back(source);
  seen[static_cast<std::size_t>(source)] = true;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId u = order[head];
    for (const ArcId a : g.out_arcs(u)) {
      const NodeId v = g.dst(a);
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        order.push_back(v);
      }
    }
  }
  return order;
}

std::vector<NodeId> reverse_bfs_order(const Graph& g, NodeId sink) {
  check_node(g, sink);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(g.num_nodes()));
  order.push_back(sink);
  seen[static_cast<std::size_t>(sink)] = true;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId u = order[head];
    for (const ArcId a : g.in_arcs(u)) {
      const NodeId v = g.src(a);
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        order.push_back(v);
      }
    }
  }
  return order;
}

std::vector<bool> reachable_from(const Graph& g, NodeId source) {
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  for (const NodeId v : bfs_order(g, source)) seen[static_cast<std::size_t>(v)] = true;
  return seen;
}

std::vector<NodeId> topological_order(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::int32_t> indeg(static_cast<std::size_t>(n), 0);
  for (ArcId a = 0; a < g.num_arcs(); ++a) ++indeg[static_cast<std::size_t>(g.dst(a))];
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (indeg[static_cast<std::size_t>(v)] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const ArcId a : g.out_arcs(order[head])) {
      if (--indeg[static_cast<std::size_t>(g.dst(a))] == 0) order.push_back(g.dst(a));
    }
  }
  if (order.size() != static_cast<std::size_t>(n)) return {};
  return order;
}

bool has_cycle(const Graph& g) {
  if (g.num_nodes() == 0) return false;
  return topological_order(g).empty();
}

std::vector<ArcId> find_any_cycle(const Graph& g, std::span<const ArcId> arc_subset) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<ArcId>> out(n);
  for (const ArcId a : arc_subset) out[static_cast<std::size_t>(g.src(a))].push_back(a);

  enum class Color : unsigned char { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  std::vector<ArcId> via(n, kInvalidArc);
  struct Frame {
    NodeId v;
    std::size_t next;
  };
  std::vector<Frame> stack;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (color[static_cast<std::size_t>(root)] != Color::kWhite) continue;
    color[static_cast<std::size_t>(root)] = Color::kGray;
    stack.clear();
    stack.push_back(Frame{root, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto& arcs = out[static_cast<std::size_t>(f.v)];
      if (f.next < arcs.size()) {
        const ArcId a = arcs[f.next++];
        const NodeId w = g.dst(a);
        if (color[static_cast<std::size_t>(w)] == Color::kGray) {
          // Cycle w -> ... -> f.v -> w; frames stack[i..top] with
          // stack[i].v == w hold it (via[stack[j].v] enters stack[j].v).
          std::size_t i = stack.size() - 1;
          while (stack[i].v != w) --i;
          std::vector<ArcId> cycle;
          for (std::size_t j = i + 1; j < stack.size(); ++j) {
            cycle.push_back(via[static_cast<std::size_t>(stack[j].v)]);
          }
          cycle.push_back(a);
          return cycle;
        }
        if (color[static_cast<std::size_t>(w)] == Color::kWhite) {
          color[static_cast<std::size_t>(w)] = Color::kGray;
          via[static_cast<std::size_t>(w)] = a;
          stack.push_back(Frame{w, 0});
        }
      } else {
        color[static_cast<std::size_t>(f.v)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

std::vector<ArcId> find_any_cycle(const Graph& g) {
  std::vector<ArcId> all(static_cast<std::size_t>(g.num_arcs()));
  std::iota(all.begin(), all.end(), ArcId{0});
  return find_any_cycle(g, all);
}

}  // namespace mcr
