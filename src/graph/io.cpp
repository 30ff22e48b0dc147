#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace mcr {

void write_dimacs(std::ostream& os, const Graph& g, const std::string& comment) {
  if (!comment.empty()) os << "c " << comment << '\n';
  os << "p mcr " << g.num_nodes() << ' ' << g.num_arcs() << '\n';
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    if (g.transit(a) <= 0) {
      // The file format requires t >= 1; refuse to emit a file that
      // read_dimacs would reject rather than fail at the next load.
      throw std::invalid_argument("write_dimacs: arc " + std::to_string(a) +
                                  " has non-positive transit " +
                                  std::to_string(g.transit(a)));
    }
    os << "a " << (g.src(a) + 1) << ' ' << (g.dst(a) + 1) << ' ' << g.weight(a);
    if (g.transit(a) != 1) os << ' ' << g.transit(a);
    os << '\n';
  }
}

namespace {

/// Whitespace as istream token extraction sees it within one line
/// (getline consumed the '\n').
bool dimacs_ws(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

Graph read_dimacs(std::string_view text, std::int64_t max_nodes) {
  std::size_t lineno = 0;
  NodeId n = -1;
  ArcId declared_m = 0;
  std::vector<ArcSpec> arcs;
  const auto fail = [&](const std::string& msg) {
    throw std::runtime_error("read_dimacs: line " + std::to_string(lineno) + ": " + msg);
  };
  // An arc line's checks and append, shared by both paths below.
  const auto add_arc = [&](long long u, long long v, long long w, long long t) {
    if (u < 1 || u > n || v < 1 || v > n) fail("arc endpoint out of range");
    if (t <= 0) {
      fail("non-positive transit time " + std::to_string(t) +
           " (the format requires t >= 1)");
    }
    arcs.push_back(ArcSpec{static_cast<NodeId>(u - 1), static_cast<NodeId>(v - 1), w, t});
  };

  // Fast path for canonical arc lines — 'a' in column 0 followed by 3
  // or 4 plain decimal tokens of at most 18 digits. Returns false on
  // anything unusual (extra tokens, malformed or long numbers, 'a' with
  // no fields), deferring to the token-extraction path below so accept
  // / reject behavior and error text stay byte-identical with the
  // original istream-based reader. Multi-million-arc packs hit this
  // branch for every arc line; the istringstream-per-line cost was the
  // parse bottleneck.
  const auto fast_arc_line = [&](std::string_view line) -> bool {
    if (n < 0) return false;  // "arc line before problem line" path
    long long vals[4] = {0, 0, 0, 0};
    int count = 0;
    std::size_t i = 1;  // past the 'a'
    for (;;) {
      while (i < line.size() && dimacs_ws(line[i])) ++i;
      if (i == line.size()) break;
      if (count == 4) return false;  // legacy path reports the extra token
      bool neg = false;
      if (line[i] == '+' || line[i] == '-') {
        neg = line[i] == '-';
        ++i;
      }
      const std::size_t digits_begin = i;
      unsigned long long acc = 0;
      for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
        acc = acc * 10 + static_cast<unsigned long long>(line[i] - '0');
      }
      // 1 to 18 digits cannot overflow int64; longer numbers (in range
      // or not) are the legacy path's to read or reject.
      if (i == digits_begin || i - digits_begin > 18) return false;
      if (i < line.size() && !dimacs_ws(line[i])) return false;  // "12x"
      const auto value = static_cast<long long>(acc);
      vals[count++] = neg ? -value : value;
    }
    if (count < 3) return false;
    add_arc(vals[0], vals[1], vals[2], count == 4 ? vals[3] : 1);
    return true;
  };

  // Everything the fast path declines, handled exactly as the original
  // per-line istringstream reader did (bug-for-bug: an unreadable 4th
  // token still falls back to t = 1, a whitespace-only line reports
  // kind '\0', ...).
  const auto slow_line = [&](std::string_view sv) {
    const std::string line(sv);
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    if (kind == 'p') {
      std::string tag;
      long long nn = 0, mm = 0;
      constexpr long long kIdMax = std::numeric_limits<std::int32_t>::max();
      if (!(ls >> tag >> nn >> mm) || tag != "mcr" || nn < 0 || mm < 0 || nn > kIdMax ||
          mm > kIdMax) {
        fail("malformed problem line (expected 'p mcr <n> <m>')");
      }
      if (nn > max_nodes) {
        fail("problem line declares " + std::to_string(nn) + " nodes, above the limit of " +
             std::to_string(max_nodes));
      }
      n = static_cast<NodeId>(nn);
      declared_m = static_cast<ArcId>(mm);
      // Reserve no more than the text can hold at 8 bytes per arc line
      // ("a 1 2 5\n"): a short request must not allocate for the m its
      // header claims.
      arcs.reserve(std::min(static_cast<std::size_t>(mm), text.size() / 8));
    } else if (kind == 'a') {
      if (n < 0) fail("arc line before problem line");
      long long u = 0, v = 0, w = 0, t = 1;
      if (!(ls >> u >> v >> w)) fail("malformed arc line");
      if (!(ls >> t)) t = 1;
      std::string extra;
      if (ls >> extra) fail("trailing tokens after arc line ('" + extra + "')");
      add_arc(u, v, w, t);
    } else {
      fail(std::string("unknown line kind '") + kind + "'");
    }
  };

  // Lines are split in place on '\n'; a last line without one counts
  // too (getline would yield it).
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    const std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    ++lineno;
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'a' && fast_arc_line(line)) continue;
    slow_line(line);
  }

  if (n < 0) throw std::runtime_error("read_dimacs: missing problem line");
  if (arcs.size() != static_cast<std::size_t>(declared_m)) {
    throw std::runtime_error("read_dimacs: arc count mismatch (declared " +
                             std::to_string(declared_m) + ", found " +
                             std::to_string(arcs.size()) + ")");
  }
  return Graph(n, arcs);
}

Graph read_dimacs(std::istream& is) {
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::string text;
  std::size_t got = kBlock;
  while (got == kBlock) {
    const std::size_t old_size = text.size();
    text.resize(old_size + kBlock);
    is.read(text.data() + old_size, static_cast<std::streamsize>(kBlock));
    got = static_cast<std::size_t>(is.gcount());
    text.resize(old_size + got);
  }
  return read_dimacs(std::string_view(text));
}

void save_dimacs(const std::string& path, const Graph& g, const std::string& comment) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_dimacs: cannot open " + path);
  write_dimacs(os, g, comment);
}

Graph load_dimacs(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_dimacs: cannot open " + path);
  return read_dimacs(is);
}

}  // namespace mcr
