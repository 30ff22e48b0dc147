#include "graph/io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "graph/builder.h"

namespace mcr {
namespace {

Graph sample() {
  GraphBuilder b(3);
  b.add_arc(0, 1, 10, 1);
  b.add_arc(1, 2, -5, 3);
  b.add_arc(2, 0, 7, 1);
  return b.build();
}

TEST(DimacsIo, WriteFormat) {
  std::ostringstream os;
  write_dimacs(os, sample(), "hello");
  const std::string s = os.str();
  EXPECT_NE(s.find("c hello"), std::string::npos);
  EXPECT_NE(s.find("p mcr 3 3"), std::string::npos);
  EXPECT_NE(s.find("a 1 2 10"), std::string::npos);
  // Transit written only when != 1.
  EXPECT_NE(s.find("a 2 3 -5 3"), std::string::npos);
}

TEST(DimacsIo, RoundTrip) {
  std::stringstream ss;
  write_dimacs(ss, sample());
  const Graph g = read_dimacs(ss);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_arcs(), 3);
  EXPECT_EQ(g.weight(1), -5);
  EXPECT_EQ(g.transit(1), 3);
  EXPECT_EQ(g.transit(0), 1);
  EXPECT_EQ(g.src(2), 2);
  EXPECT_EQ(g.dst(2), 0);
}

TEST(DimacsIo, ReadSkipsCommentsAndBlankLines) {
  std::istringstream is("c top comment\n\np mcr 2 1\nc mid\na 1 2 5\n");
  const Graph g = read_dimacs(is);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_EQ(g.weight(0), 5);
}

TEST(DimacsIo, DefaultTransitIsOne) {
  std::istringstream is("p mcr 2 1\na 1 2 5\n");
  const Graph g = read_dimacs(is);
  EXPECT_EQ(g.transit(0), 1);
}

TEST(DimacsIo, MissingProblemLineThrows) {
  std::istringstream is("a 1 2 5\n");
  EXPECT_THROW(read_dimacs(is), std::runtime_error);
}

TEST(DimacsIo, NoProblemLineAtAllThrows) {
  std::istringstream is("c nothing here\n");
  EXPECT_THROW(read_dimacs(is), std::runtime_error);
}

TEST(DimacsIo, ArcCountMismatchThrows) {
  std::istringstream is("p mcr 2 2\na 1 2 5\n");
  EXPECT_THROW(read_dimacs(is), std::runtime_error);
}

TEST(DimacsIo, EndpointOutOfRangeThrows) {
  std::istringstream is("p mcr 2 1\na 1 3 5\n");
  EXPECT_THROW(read_dimacs(is), std::runtime_error);
}

TEST(DimacsIo, UnknownLineKindThrows) {
  std::istringstream is("p mcr 2 1\nz nonsense\n");
  EXPECT_THROW(read_dimacs(is), std::runtime_error);
}

TEST(DimacsIo, MalformedProblemLineThrows) {
  std::istringstream is("p spx 2 1\na 1 2 5\n");
  EXPECT_THROW(read_dimacs(is), std::runtime_error);
}

TEST(DimacsIo, NonPositiveTransitThrowsWithLineNumber) {
  std::istringstream zero("p mcr 2 1\na 1 2 5 0\n");
  try {
    (void)read_dimacs(zero);
    FAIL() << "zero transit accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("transit"), std::string::npos) << e.what();
  }
  std::istringstream negative("p mcr 2 2\na 1 2 5 2\na 2 1 5 -3\n");
  try {
    (void)read_dimacs(negative);
    FAIL() << "negative transit accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(DimacsIo, TrailingTokensOnArcLineThrow) {
  std::istringstream is("p mcr 2 1\na 1 2 5 1 junk\n");
  EXPECT_THROW((void)read_dimacs(is), std::runtime_error);
}

TEST(DimacsIo, WriteRejectsNonPositiveTransit) {
  GraphBuilder b(2);
  b.add_arc(0, 1, 5, 0);  // representable in memory, not in the format
  b.add_arc(1, 0, 5, 2);
  std::ostringstream os;
  EXPECT_THROW(write_dimacs(os, b.build()), std::invalid_argument);
}

TEST(DimacsIo, RoundTripNegativeWeights) {
  GraphBuilder b(4);
  b.add_arc(0, 1, -10000, 1);
  b.add_arc(1, 2, -1, 1);
  b.add_arc(2, 3, 0, 1);
  b.add_arc(3, 0, -42, 1);
  const Graph g = b.build();
  std::stringstream ss;
  write_dimacs(ss, g);
  const Graph h = read_dimacs(ss);
  ASSERT_EQ(h.num_arcs(), g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(h.src(a), g.src(a));
    EXPECT_EQ(h.dst(a), g.dst(a));
    EXPECT_EQ(h.weight(a), g.weight(a));
    EXPECT_EQ(h.transit(a), g.transit(a));
  }
}

TEST(DimacsIo, RoundTripMultiTransit) {
  GraphBuilder b(3);
  b.add_arc(0, 1, 7, 5);
  b.add_arc(1, 2, -3, 1);   // default-transit arc mixed in
  b.add_arc(2, 0, 11, 1000000);
  b.add_arc(0, 0, -9, 2);   // self loop with transit
  const Graph g = b.build();
  std::stringstream ss;
  write_dimacs(ss, g);
  const Graph h = read_dimacs(ss);
  ASSERT_EQ(h.num_arcs(), g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(h.src(a), g.src(a));
    EXPECT_EQ(h.dst(a), g.dst(a));
    EXPECT_EQ(h.weight(a), g.weight(a));
    EXPECT_EQ(h.transit(a), g.transit(a));
  }
}

TEST(DimacsIo, FileSaveAndLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mcr_io_test.dimacs").string();
  save_dimacs(path, sample(), "file test");
  const Graph g = load_dimacs(path);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_arcs(), 3);
  std::remove(path.c_str());
}

TEST(DimacsIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_dimacs("/nonexistent/path/graph.dimacs"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The string_view parser has a fast path for canonical arc lines and
// falls back to the legacy token-extraction path for anything unusual.
// These tests pin the exact error strings (and the deliberate legacy
// quirks) so the fast path can never drift from the reference behavior.
// Every case runs through both overloads: the std::istream one reads
// the stream into a string and must give the same graph or the same
// error text as parsing that string directly.

std::string read_error(const std::string& text) {
  std::string errors[2];
  try {
    std::istringstream is(text);
    (void)read_dimacs(is);
  } catch (const std::runtime_error& e) {
    errors[0] = e.what();
  }
  try {
    (void)read_dimacs(std::string_view(text));
  } catch (const std::runtime_error& e) {
    errors[1] = e.what();
  }
  EXPECT_EQ(errors[0], errors[1]) << text;
  return errors[1];
}

Graph read_both(const std::string& text) {
  std::istringstream is(text);
  const Graph streamed = read_dimacs(is);
  Graph parsed = read_dimacs(std::string_view(text));
  EXPECT_EQ(streamed.num_nodes(), parsed.num_nodes());
  EXPECT_EQ(streamed.num_arcs(), parsed.num_arcs());
  for (ArcId a = 0; a < std::min(streamed.num_arcs(), parsed.num_arcs()); ++a) {
    EXPECT_EQ(streamed.src(a), parsed.src(a));
    EXPECT_EQ(streamed.dst(a), parsed.dst(a));
    EXPECT_EQ(streamed.weight(a), parsed.weight(a));
    EXPECT_EQ(streamed.transit(a), parsed.transit(a));
  }
  return parsed;
}

TEST(DimacsScanner, ExactErrorStrings) {
  EXPECT_EQ(read_error("p mcr 4 1\na 1\n"),
            "read_dimacs: line 2: malformed arc line");
  EXPECT_EQ(read_error("p mcr 4 1\na 1 2 3 4 5\n"),
            "read_dimacs: line 2: trailing tokens after arc line ('5')");
  // Endpoint range via the fast path (canonical tokens)...
  EXPECT_EQ(read_error("p mcr 4 1\na 1 9 3\n"),
            "read_dimacs: line 2: arc endpoint out of range");
  // ...and via the legacy path (a '+' sign is canonical too, tabs are
  // whitespace): same string either way.
  EXPECT_EQ(read_error("p mcr 4 1\na\t+1\t9\t3\n"),
            "read_dimacs: line 2: arc endpoint out of range");
  EXPECT_EQ(read_error("p mcr 4 1\na 1 2 3 0\n"),
            "read_dimacs: line 2: non-positive transit time 0 (the format "
            "requires t >= 1)");
  EXPECT_EQ(read_error("p mcr 4 1\na 1 2 3 -7\n"),
            "read_dimacs: line 2: non-positive transit time -7 (the format "
            "requires t >= 1)");
  // A weight that overflows int64 declines the fast path; the stream
  // extraction then fails the same way a non-number would.
  EXPECT_EQ(read_error("p mcr 4 1\na 1 2 99999999999999999999\n"),
            "read_dimacs: line 2: malformed arc line");
  EXPECT_EQ(read_error("a 1 2 3\n"), "read_dimacs: line 1: arc line before problem line");
  EXPECT_EQ(read_error("x 1 2\n"), "read_dimacs: line 1: unknown line kind 'x'");
  EXPECT_EQ(read_error("p mcr x 1\n"),
            "read_dimacs: line 1: malformed problem line (expected 'p mcr <n> <m>')");
  EXPECT_EQ(read_error(""), "read_dimacs: missing problem line");
  EXPECT_EQ(read_error("p mcr 4 2\na 1 2 3\n"),
            "read_dimacs: arc count mismatch (declared 2, found 1)");
}

TEST(DimacsScanner, WhitespaceOnlyLineReportsNulKind) {
  // Legacy quirk, preserved bug-for-bug: token extraction from a
  // whitespace-only line leaves kind = '\0', so the message embeds a
  // NUL — which what() (a C string) truncates at.
  EXPECT_EQ(read_error("p mcr 4 0\n \n"),
            "read_dimacs: line 2: unknown line kind '");
}

TEST(DimacsScanner, UnreadableFourthTokenFallsBackToTransitOne) {
  // Legacy quirk, preserved bug-for-bug: a 4th token that fails int64
  // extraction falls back to t = 1, and the stuck failbit hides it from
  // the trailing-token check.
  const Graph g = read_both("p mcr 2 1\na 1 2 5 x\n");
  ASSERT_EQ(g.num_arcs(), 1);
  EXPECT_EQ(g.weight(0), 5);
  EXPECT_EQ(g.transit(0), 1);
  // Same stuck-failbit quirk when the junk is glued to the weight: "3x"
  // reads weight 3, then 'x' consumes the transit extraction.
  const Graph g2 = read_both("p mcr 4 1\na 1 2 3x\n");
  ASSERT_EQ(g2.num_arcs(), 1);
  EXPECT_EQ(g2.weight(0), 3);
  EXPECT_EQ(g2.transit(0), 1);
}

TEST(DimacsScanner, CrlfAndFinalLineWithoutNewline) {
  // CR is line-internal whitespace (the scanner splits on LF only), so
  // CRLF files parse; a last line with no terminator still counts.
  const Graph g = read_both("p mcr 2 2\r\na 1 2 5\r\na 2 1 -3 4");
  ASSERT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.weight(0), 5);
  EXPECT_EQ(g.transit(0), 1);
  EXPECT_EQ(g.weight(1), -3);
  EXPECT_EQ(g.transit(1), 4);
}

TEST(DimacsScanner, FastAndSlowPathsAgreeOnEquivalentSpellings) {
  // The same graph spelled canonically (fast path) and with legacy
  // oddities (leading whitespace, '+' signs, tab separators — slow
  // path) must parse identically.
  const Graph a = read_both("p mcr 3 3\na 1 2 10\na 2 3 -5 3\na 3 1 7\n");
  const Graph b = read_both("p mcr 3 3\n  a 1 2 10\na\t+2\t+3\t-5\t+3\na 3 1 +7\n");
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (ArcId e = 0; e < a.num_arcs(); ++e) {
    EXPECT_EQ(a.src(e), b.src(e));
    EXPECT_EQ(a.dst(e), b.dst(e));
    EXPECT_EQ(a.weight(e), b.weight(e));
    EXPECT_EQ(a.transit(e), b.transit(e));
  }
}

TEST(DimacsScanner, ChunkBoundarySafety) {
  // A text larger than 1 MiB, so the std::istream overload reads many
  // 64 KiB blocks, with the header asserting the exact arc count: no
  // line is lost or doubled where a block ends.
  constexpr int kArcs = 150000;  // ~1.7 MB of text
  std::string text = "p mcr 2 " + std::to_string(kArcs) + "\n";
  for (int i = 0; i < kArcs; ++i) {
    text += (i % 2) == 0 ? "a 1 2 7\n" : "a 2 1 -345678 9\n";
  }
  const Graph g = read_both(text);
  ASSERT_EQ(g.num_arcs(), kArcs);
  EXPECT_EQ(g.weight(0), 7);
  EXPECT_EQ(g.weight(1), -345678);
  EXPECT_EQ(g.transit(1), 9);
}

TEST(DimacsScanner, LongNumbersTakeTheLegacyPath) {
  // The fast path reads at most 18 digits; a longer number, in int64
  // range or not, is read or rejected by token extraction.
  const Graph g = read_both(
      "p mcr 2 3\na 1 2 -9223372036854775808\na 2 1 9223372036854775807 "
      "0000000000000000000007\na 1 1 000000000000000000001\n");
  ASSERT_EQ(g.num_arcs(), 3);
  EXPECT_EQ(g.weight(0), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(g.weight(1), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(g.transit(1), 7);
  EXPECT_EQ(g.weight(2), 1);
  EXPECT_EQ(read_error("p mcr 2 1\na 1 2 9223372036854775808\n"),
            "read_dimacs: line 2: malformed arc line");
}

TEST(DimacsScanner, ProblemLineBoundsNodeAndArcCounts) {
  const std::string malformed =
      "read_dimacs: line 1: malformed problem line (expected 'p mcr <n> <m>')";
  // n or m beyond INT32_MAX would wrap in the cast to a 32-bit id:
  // 4294967298 nodes read as 2, 4294967297 arcs as 1.
  EXPECT_EQ(read_error("p mcr 4294967298 2\na 1 2 5\na 2 1 3\n"), malformed);
  EXPECT_EQ(read_error("p mcr 2 4294967297\na 1 2 5\n"), malformed);
  EXPECT_EQ(read_error("p mcr 2147483648 0\n"), malformed);
  EXPECT_EQ(read_error("p mcr 2 2147483648\n"), malformed);
  // A header's m sizes no allocation: a 27-byte text claiming a billion
  // arcs fails on the count, not on memory.
  EXPECT_EQ(read_error("p mcr 2 1000000000\na 1 2 5\n"),
            "read_dimacs: arc count mismatch (declared 1000000000, found 1)");
  EXPECT_EQ(read_error("p mcr 2 2147483647\n"),
            "read_dimacs: arc count mismatch (declared 2147483647, found 0)");
}

// The declared n sizes the graph's arrays, so a caller's node bound is
// checked on the problem line before anything is allocated: 17 bytes
// must not build a 20-million-node graph.
TEST(DimacsScanner, ProblemLineNodeCountIsBoundedByTheCaller) {
  try {
    (void)read_dimacs(std::string_view("p mcr 20000000 0\n"), 2097152);
    FAIL() << "expected the node bound to refuse the header";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "read_dimacs: line 1: problem line declares 20000000 nodes, above the "
                 "limit of 2097152");
  }
  // At the bound the header is read as usual.
  EXPECT_EQ(read_dimacs(std::string_view("p mcr 3 0\n"), 3).num_nodes(), 3);
}

}  // namespace
}  // namespace mcr
