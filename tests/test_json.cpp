// mcr::json — the dependency-free reader behind mcr_bench_diff. The
// contracts under test: round-trips of the constructs our writers emit,
// escape handling (including \uXXXX and surrogate pairs), strictness
// (trailing garbage, truncation, and malformed numbers throw with a
// byte offset), and the typed accessor errors.
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gen/sprand.h"
#include "graph/io.h"
#include "support/json.h"

namespace mcr {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(json::parse("42").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(json::parse("-0.5e3").as_double(), -500.0);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const json::Value v = json::parse(
      R"({"a":[1,2,{"b":true}],"c":{"d":null},"e":"x"})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_double(), 2.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_TRUE(v.has("e"));
  EXPECT_FALSE(v.has("missing"));
}

TEST(Json, DecodesStringEscapes) {
  EXPECT_EQ(json::parse(R"("q\"b\\s\/n\nr\rt\tf\fb\b")").as_string(),
            "q\"b\\s/n\nr\rt\tf\fb\b");
  EXPECT_EQ(json::parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 (😀) as \ud83d\ude00.
  EXPECT_EQ(json::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
}

// The byte-at-a-time decoder json::parse used before it scanned strings
// eight bytes per step, for a document that is one string literal:
// the decoded string, or the error text parse must throw.
struct Decoded {
  std::string value;
  std::string error;
};

Decoded reference_decode(std::string_view doc) {
  std::size_t pos = 1;  // past the opening quote
  std::string out;
  const auto fail = [&](const char* what) {
    return Decoded{"", "json: " + std::string(what) + " at offset " + std::to_string(pos)};
  };
  while (pos < doc.size()) {
    const char c = doc[pos];
    if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
    if (c == '"') {
      ++pos;
      while (pos < doc.size() &&
             (doc[pos] == ' ' || doc[pos] == '\t' || doc[pos] == '\n' || doc[pos] == '\r')) {
        ++pos;
      }
      if (pos != doc.size()) return fail("trailing data after JSON value");
      return {out, ""};
    }
    if (c == '\\') {
      ++pos;
      if (pos >= doc.size()) return fail("truncated escape");
      switch (doc[pos]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {  // this test only writes \u00XX with XX < 0x80
          ++pos;
          if (pos + 4 > doc.size()) {
            pos = doc.size();
            return fail("truncated \\u escape");
          }
          out += static_cast<char>(std::stoi(std::string(doc.substr(pos, 4)), nullptr, 16));
          pos += 3;
          break;
        }
        default: return fail("unknown escape");
      }
      ++pos;
      continue;
    }
    out += c;
    ++pos;
  }
  return fail("unterminated string");
}

void expect_decodes_like_reference(const std::string& doc) {
  const Decoded want = reference_decode(doc);
  try {
    const std::string got = json::parse(doc).as_string();
    EXPECT_EQ(want.error, "") << json::escape(doc);
    EXPECT_EQ(got, want.value) << json::escape(doc);
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), want.error) << json::escape(doc);
  }
}

TEST(Json, StringScanMatchesByteAtATimeDecodingAtEveryWordOffset) {
  // Bytes that end a plain run (quote, backslash, escapes, control
  // bytes) and bytes next to the word-scan thresholds that must not.
  const std::vector<std::string> specials = {
      "\"",  "\\",   "\\\\", "\\\"", "\\n", "\\u0041", "\\q", "\x01", "\x1f",
      std::string(1, '\0'), " ", "!", "#", "[", "]", "\x7f", "\x80",
      "\xa0", "\xa2", "\xdc", "\xff"};
  const std::string_view filler = "abcdefghijklmnopqr";  // 18 plain bytes
  const auto doc = [](std::initializer_list<std::string_view> parts) {
    std::string out = "\"";
    for (const std::string_view part : parts) out += part;
    return out;
  };
  for (std::size_t i = 0; i < filler.size(); ++i) {
    for (const std::string& s : specials) {
      const std::string_view head = filler.substr(0, i);
      expect_decodes_like_reference(doc({head, s, filler.substr(i), "\""}));
      expect_decodes_like_reference(doc({head, s}));  // unterminated
      for (std::size_t j = i; j < filler.size(); ++j) {
        for (const std::string& t : specials) {
          expect_decodes_like_reference(
              doc({head, s, filler.substr(i, j - i), t, filler.substr(j), "\""}));
        }
      }
    }
  }
}

TEST(Json, EscapedDimacsTextRoundTrips) {
  gen::SprandConfig cfg;
  cfg.n = 512;
  cfg.m = 2048;
  cfg.seed = 5;
  std::ostringstream os;
  write_dimacs(os, gen::sprand(cfg), "quote \" backslash \\ tab \t bell \x07 byte \xe9");
  const std::string text = os.str();
  ASSERT_GT(text.size(), 25000u);
  EXPECT_EQ(json::parse("\"" + json::escape(text) + "\"").as_string(), text);
  const json::Value request =
      json::parse(R"({"verb":"SOLVE","dimacs":")" + json::escape(text) + R"("})");
  EXPECT_EQ(request.at("dimacs").as_string(), text);
}

TEST(Json, WhitespaceAroundTokensIsFine) {
  const json::Value v = json::parse(" { \"k\" :\n[ 1 ,\t2 ] } ");
  EXPECT_EQ(v.at("k").as_array().size(), 2u);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
        "\"bad\\q\"", "{\"a\":1}garbage", "[1] [2]", "nan", "+1",
        "{\"a\" 1}", "\"\\ud83d\""}) {
    EXPECT_THROW((void)json::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, ErrorsNameTheByteOffset) {
  try {
    (void)json::parse("[1, x]");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const json::Value v = json::parse(R"({"n":1,"s":"x"})");
  EXPECT_THROW((void)v.at("n").as_string(), std::runtime_error);
  EXPECT_THROW((void)v.at("s").as_double(), std::runtime_error);
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
  EXPECT_THROW((void)v.at("n").at("x"), std::runtime_error);  // not an object
}

TEST(Json, DefaultingAccessors) {
  const json::Value v = json::parse(R"({"n":2.5,"s":"x"})");
  EXPECT_DOUBLE_EQ(v.number_or("n", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(v.number_or("gone", -1.0), -1.0);
  EXPECT_EQ(v.string_or("s", "d"), "x");
  EXPECT_EQ(v.string_or("gone", "d"), "d");
}

TEST(Json, ParseFileErrorsNameThePath) {
  try {
    (void)json::parse_file("/nonexistent/mcr.json");
    FAIL() << "expected error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/mcr.json"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mcr
