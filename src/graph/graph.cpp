#include "graph/graph.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "support/int128.h"

namespace mcr {

Graph::Graph(NodeId num_nodes, const std::vector<ArcSpec>& arcs) : num_nodes_(num_nodes) {
  const std::size_t m = arcs.size();
  own_src_.reserve(m);
  own_dst_.reserve(m);
  own_weight_.reserve(m);
  own_transit_.reserve(m);
  for (const ArcSpec& a : arcs) {
    own_src_.push_back(a.src);
    own_dst_.push_back(a.dst);
    own_weight_.push_back(a.weight);
    own_transit_.push_back(a.transit);
  }
  finish_build();
}

Graph::Graph(NodeId num_nodes, std::span<const NodeId> src, std::span<const NodeId> dst,
             std::span<const std::int64_t> weight, std::span<const std::int64_t> transit)
    : num_nodes_(num_nodes),
      own_src_(src.begin(), src.end()),
      own_dst_(dst.begin(), dst.end()),
      own_weight_(weight.begin(), weight.end()),
      own_transit_(transit.begin(), transit.end()) {
  if (dst.size() != src.size() || weight.size() != src.size() ||
      transit.size() != src.size()) {
    throw std::invalid_argument("Graph: arc array size mismatch");
  }
  finish_build();
}

Graph Graph::adopt_external(const ExternalParts& parts,
                            std::shared_ptr<const void> keepalive) {
  if (parts.num_nodes < 0) throw std::invalid_argument("Graph: negative node count");
  const std::size_t n = static_cast<std::size_t>(parts.num_nodes);
  const std::size_t m = parts.src.size();
  if (m > static_cast<std::size_t>(std::numeric_limits<ArcId>::max())) {
    throw std::invalid_argument("Graph: too many arcs for 32-bit arc ids");
  }
  if (parts.dst.size() != m || parts.weight.size() != m || parts.transit.size() != m ||
      parts.out_arcs.size() != m || parts.in_arcs.size() != m) {
    throw std::invalid_argument("Graph: arc array size mismatch");
  }
  if (parts.out_first.size() != n + 1 || parts.in_first.size() != n + 1) {
    throw std::invalid_argument("Graph: CSR offset array size mismatch");
  }
  Graph g;
  g.num_nodes_ = parts.num_nodes;
  g.src_ = parts.src;
  g.dst_ = parts.dst;
  g.weight_ = parts.weight;
  g.transit_ = parts.transit;
  g.out_first_ = parts.out_first;
  g.out_arcs_ = parts.out_arcs;
  g.in_first_ = parts.in_first;
  g.in_arcs_ = parts.in_arcs;
  g.min_weight_ = parts.min_weight;
  g.max_weight_ = parts.max_weight;
  g.total_transit_ = parts.total_transit;
  g.keepalive_ = std::move(keepalive);
  return g;
}

void Graph::finish_build() {
  if (num_nodes_ < 0) throw std::invalid_argument("Graph: negative node count");
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  const std::size_t m = own_src_.size();
  if (m > static_cast<std::size_t>(std::numeric_limits<ArcId>::max())) {
    throw std::invalid_argument("Graph: too many arcs for 32-bit arc ids");
  }

  min_weight_ = m ? std::numeric_limits<std::int64_t>::max() : 0;
  max_weight_ = m ? std::numeric_limits<std::int64_t>::min() : 0;
  int128 total_transit = 0;  // wide: it must itself fit int64 (an input check)
  for (std::size_t a = 0; a < m; ++a) {
    if (own_src_[a] < 0 || own_src_[a] >= num_nodes_ || own_dst_[a] < 0 ||
        own_dst_[a] >= num_nodes_) {
      throw std::out_of_range("Graph: arc endpoint out of range");
    }
    if (own_weight_[a] < min_weight_) min_weight_ = own_weight_[a];
    if (own_weight_[a] > max_weight_) max_weight_ = own_weight_[a];
    total_transit += own_transit_[a];
  }
  total_transit_ = static_cast<std::int64_t>(total_transit);
  if (total_transit_ != total_transit) {
    throw std::invalid_argument("Graph: total transit does not fit in int64");
  }

  // Counting sort of arc ids into the two CSR structures.
  own_out_first_.assign(n + 1, 0);
  own_in_first_.assign(n + 1, 0);
  for (std::size_t a = 0; a < m; ++a) {
    ++own_out_first_[static_cast<std::size_t>(own_src_[a]) + 1];
    ++own_in_first_[static_cast<std::size_t>(own_dst_[a]) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    own_out_first_[v + 1] += own_out_first_[v];
    own_in_first_[v + 1] += own_in_first_[v];
  }
  own_out_arcs_.resize(m);
  own_in_arcs_.resize(m);
  std::vector<std::int32_t> out_pos(own_out_first_.begin(), own_out_first_.end() - 1);
  std::vector<std::int32_t> in_pos(own_in_first_.begin(), own_in_first_.end() - 1);
  for (std::size_t a = 0; a < m; ++a) {
    own_out_arcs_[static_cast<std::size_t>(
        out_pos[static_cast<std::size_t>(own_src_[a])]++)] = static_cast<ArcId>(a);
    own_in_arcs_[static_cast<std::size_t>(in_pos[static_cast<std::size_t>(own_dst_[a])]++)] =
        static_cast<ArcId>(a);
  }

  src_ = own_src_;
  dst_ = own_dst_;
  weight_ = own_weight_;
  transit_ = own_transit_;
  out_first_ = own_out_first_;
  out_arcs_ = own_out_arcs_;
  in_first_ = own_in_first_;
  in_arcs_ = own_in_arcs_;
}

}  // namespace mcr
