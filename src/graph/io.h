// Text serialization of graphs.
//
// The format is the DIMACS shortest-path format extended with a transit
// time:
//   c <comment>
//   p mcr <num_nodes> <num_arcs>
//   a <src> <dst> <weight> [<transit>]
// Node ids in files are 1-based (DIMACS convention); in memory they are
// 0-based. Omitted transit defaults to 1; an explicit transit must be
// >= 1 (read_dimacs rejects non-positive transit with a line number).
// Weights may be any 64-bit integer, negative included.
#ifndef MCR_GRAPH_IO_H
#define MCR_GRAPH_IO_H

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

#include "graph/graph.h"

namespace mcr {

/// Writes g in the extended DIMACS format.
void write_dimacs(std::ostream& os, const Graph& g, const std::string& comment = "");

/// Parses a graph from the whole text, splitting lines in place;
/// throws std::runtime_error with a line number on malformed input
/// (including a problem line whose n or m exceeds INT32_MAX). A problem
/// line declaring more than `max_nodes` nodes is refused before
/// anything is allocated: the declared n sizes the graph's arrays.
[[nodiscard]] Graph read_dimacs(std::string_view text,
                                std::int64_t max_nodes = std::numeric_limits<NodeId>::max());

/// Reads the stream to its end, then parses that text as above.
[[nodiscard]] Graph read_dimacs(std::istream& is);

/// File-path conveniences.
void save_dimacs(const std::string& path, const Graph& g, const std::string& comment = "");
[[nodiscard]] Graph load_dimacs(const std::string& path);

}  // namespace mcr

#endif  // MCR_GRAPH_IO_H
