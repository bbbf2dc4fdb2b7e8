#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace maxev {
namespace {

using namespace maxev::literals;

TEST(DurationTest, UnitConstructors) {
  EXPECT_EQ(Duration::ps(1).count(), 1);
  EXPECT_EQ(Duration::ns(1).count(), 1'000);
  EXPECT_EQ(Duration::us(1).count(), 1'000'000);
  EXPECT_EQ(Duration::ms(1).count(), 1'000'000'000);
  EXPECT_EQ(Duration::sec(1).count(), 1'000'000'000'000);
}

TEST(DurationTest, Literals) {
  EXPECT_EQ((5_us).count(), 5'000'000);
  EXPECT_EQ((3_ns).count(), 3'000);
  EXPECT_EQ((7_ps).count(), 7);
  EXPECT_EQ((2_ms).count(), 2'000'000'000);
}

TEST(DurationTest, Arithmetic) {
  EXPECT_EQ((2_us + 3_us).count(), (5_us).count());
  EXPECT_EQ((5_us - 3_us).count(), (2_us).count());
  EXPECT_EQ((2_us * 3).count(), (6_us).count());
  Duration d = 1_us;
  d += 1_us;
  EXPECT_EQ(d, 2_us);
}

TEST(DurationTest, Comparison) {
  EXPECT_LT(1_us, 2_us);
  EXPECT_GT(1_ms, 999_us);
  EXPECT_EQ(1000_ns, 1_us);
}

TEST(DurationTest, FromSeconds) {
  EXPECT_EQ(Duration::from_seconds(1e-6), 1_us);
  EXPECT_EQ(Duration::from_seconds(0.5).count(), 500'000'000'000);
}

TEST(DurationTest, ConversionAccessors) {
  EXPECT_DOUBLE_EQ((1_ms).seconds(), 1e-3);
  EXPECT_DOUBLE_EQ((1_us).micros(), 1.0);
  EXPECT_DOUBLE_EQ((1_ns).nanos(), 1.0);
}

TEST(DurationTest, ToStringPicksUnit) {
  EXPECT_EQ((5_us).to_string(), "5us");
  EXPECT_EQ((1500_ns).to_string(), "1.5us");
  EXPECT_EQ(Duration::ps(12).to_string(), "12ps");
  EXPECT_EQ(Duration::sec(2).to_string(), "2s");
}

TEST(TimePointTest, Arithmetic) {
  const TimePoint t = TimePoint::origin() + 5_us;
  EXPECT_EQ(t.count(), 5'000'000);
  EXPECT_EQ((t + 1_us).count(), 6'000'000);
  EXPECT_EQ((t - TimePoint::origin()), 5_us);
  EXPECT_LT(TimePoint::origin(), t);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, KnownSplitMix64Stream) {
  // Reference values for SplitMix64 seeded with 1234567.
  Rng r(1234567);
  EXPECT_EQ(r.next_u64(), 6457827717110365317ull);
  EXPECT_EQ(r.next_u64(), 3203168211198807973ull);
}

TEST(RngTest, UniformRangeRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_i64(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, Uniform01InRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng r(11);
  bool seen[5] = {};
  for (int i = 0; i < 200; ++i) seen[r.next_below(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(RngTest, PickWeightedPrefersHeavy) {
  Rng r(13);
  std::vector<double> w = {0.01, 10.0};
  int heavy = 0;
  for (int i = 0; i < 500; ++i)
    if (r.pick_weighted(w) == 1) ++heavy;
  EXPECT_GT(heavy, 450);
}

TEST(RngTest, SplitGivesIndependentStream) {
  Rng a(5);
  Rng c = a.split();
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(StatsTest, AccumulatorMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(StatsTest, SummarizeMatchesAccumulator) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(StringsTest, Format) {
  EXPECT_EQ(format("x=%d y=%s", 3, "abc"), "x=3 y=abc");
  EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(StringsTest, ParseCount) {
  EXPECT_EQ(parse_count("1"), 1u);
  EXPECT_EQ(parse_count("20000"), 20000u);
  EXPECT_EQ(parse_count("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_count(nullptr), std::nullopt);
  EXPECT_EQ(parse_count(""), std::nullopt);
  EXPECT_EQ(parse_count("0"), std::nullopt);       // zero workload
  EXPECT_EQ(parse_count("-3"), std::nullopt);      // no silent wraparound
  EXPECT_EQ(parse_count("+3"), std::nullopt);
  EXPECT_EQ(parse_count("12x"), std::nullopt);     // trailing junk
  EXPECT_EQ(parse_count("--help"), std::nullopt);
  EXPECT_EQ(parse_count("18446744073709551616"), std::nullopt);  // overflow
}

TEST(StringsTest, ConsoleTableAlignsColumns) {
  ConsoleTable t({"a", "long header"});
  t.add_row({"1", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a | long header |"), std::string::npos);
  EXPECT_NE(out.find("| 1 | 2           |"), std::string::npos);
}

TEST(CsvTest, WritesEscapedCells) {
  const std::string path = testing::TempDir() + "/maxev_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"plain", "has,comma"});
    w.row({"has\"quote", "x"});
    w.row_numeric({1.5, 2.0});
    EXPECT_EQ(w.rows_written(), 4u);
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("a,b\n"), std::string::npos);
  EXPECT_NE(all.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(all.find("\"has\"\"quote\",x\n"), std::string::npos);
  EXPECT_NE(all.find("1.5,2\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), Error);
}

TEST(ErrorTest, HierarchyRoots) {
  EXPECT_THROW(throw DescriptionError("x"), Error);
  EXPECT_THROW(throw OverflowError("x"), Error);
  EXPECT_THROW(throw SimulationError("x"), Error);
}

// --------------------------------------------------------------- json ----
// The bytes JsonWriter emits are the serve wire format: these cases pin
// them exactly (escapes, integer bounds, round-trip doubles).

TEST(JsonWriterTest, EscapesEveryControlAndQuoteCharacter) {
  JsonWriter w;
  w.begin_object()
      .field("k\"\\", std::string("q\" b\\ n\n r\r t\t u\x01 v\x1f end"))
      .field("c", "char*\n")
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"k\"\\":"q\" b\\ n\n r\r t\t u\u0001 v\u001f end",)"
            R"("c":"char*\n"})");
}

TEST(JsonWriterTest, IntegerBounds) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::numeric_limits<std::int64_t>::max())
      .value(std::int64_t{0})
      .value(std::int64_t{-1})
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::uint64_t{0})
      .end_array();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808,9223372036854775807,0,-1,"
            "18446744073709551615,0]");
}

TEST(JsonWriterTest, DoublesRoundTripAndNonFiniteIsNull) {
  JsonWriter w;
  w.begin_array()
      .value(0.1)
      .value(-0.0)
      .value(1e21)
      .value(5e-324)
      .value(DBL_MAX)
      .value(1.5)
      .value(100.0)
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(-std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(w.str(),
            "[0.10000000000000001,-0,1e+21,4.9406564584124654e-324,"
            "1.7976931348623157e+308,1.5,100,null,null]");
  const JsonValue back = json_parse(w.str());
  EXPECT_EQ(back[0].as_double(), 0.1);
  // "-0" is an integral literal: it reads back as the integer 0.
  EXPECT_EQ(back[1].as_int64(), 0);
  // ... and as a double it keeps its sign, and so does its dump.
  EXPECT_TRUE(std::signbit(back[1].as_double()));
  EXPECT_EQ(json_dump(back), w.str());
  EXPECT_EQ(back[2].as_double(), 1e21);
  EXPECT_EQ(back[3].as_double(), 5e-324);
  EXPECT_EQ(back[4].as_double(), DBL_MAX);
  EXPECT_TRUE(back[7].is_null());
}

TEST(JsonWriterTest, NestingAndCommaPlacement) {
  JsonWriter w;
  w.begin_object().key("a").begin_array().value(true).begin_object();
  w.end_object().begin_array().end_array().null_value().end_array();
  w.key("b").begin_object().field("c", false).end_object().end_object();
  EXPECT_EQ(w.str(), R"({"a":[true,{},[],null],"b":{"c":false}})");
  const std::string copied = w.str();
  EXPECT_EQ(std::move(w).str(), copied);
  JsonWriter open;
  open.begin_array();
  EXPECT_THROW((void)open.str(), Error);
  EXPECT_THROW((void)std::move(open).str(), Error);
  EXPECT_THROW(JsonWriter().end_object(), Error);
}

TEST(JsonParseTest, IntegersBeyondInt64ParseAsDoubles) {
  const JsonValue v = json_parse(
      "[-9223372036854775808,9223372036854775807,9223372036854775808,"
      "-9223372036854775809,18446744073709551615]");
  EXPECT_EQ(v[0].as_int64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v[1].as_int64(), std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_TRUE(v[i].is_number()) << i;
    EXPECT_FALSE(v[i].is_int64()) << i;
  }
  EXPECT_EQ(v[2].as_double(), 9223372036854775808.0);
  EXPECT_EQ(v[3].as_double(), -9223372036854775809.0);
  EXPECT_EQ(v[4].as_double(), 18446744073709551615.0);
  EXPECT_EQ(json_dump(v),
            "[-9223372036854775808,9223372036854775807,"
            "9.2233720368547758e+18,-9.2233720368547758e+18,"
            "1.8446744073709552e+19]");
}

TEST(JsonParseTest, NumbersKeepStrtodResults) {
  const JsonValue v =
      json_parse("[0.5,-0.0,1e400,-1e400,1e-400,2.5E+3,7e0,-12,0]");
  EXPECT_EQ(v[0].as_double(), 0.5);
  EXPECT_TRUE(std::signbit(v[1].as_double()));
  EXPECT_FALSE(v[1].is_int64());
  EXPECT_EQ(v[2].as_double(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(v[3].as_double(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(v[4].as_double(), 0.0);
  EXPECT_EQ(v[5].as_double(), 2500.0);
  EXPECT_FALSE(v[6].is_int64());
  EXPECT_EQ(v[6].as_double(), 7.0);
  EXPECT_EQ(v[7].as_int64(), -12);
  EXPECT_EQ(v[8].as_int64(), 0);
}

TEST(JsonParseTest, StringsDecodeEscapes) {
  const JsonValue v = json_parse(
      R"(["plain","q\" b\\ s\/ \b\f\n\r\t","\u0001\u001F\u0041\u00e9\u20ac",""])");
  EXPECT_EQ(v[0].as_string(), "plain");
  EXPECT_EQ(v[1].as_string(), "q\" b\\ s/ \b\f\n\r\t");
  EXPECT_EQ(v[2].as_string(), "\x01\x1f" "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(v[3].as_string(), "");
  // Writer output parses back to the same string, and re-dumps the same.
  const std::string dumped = json_dump(v);
  EXPECT_EQ(json_dump(json_parse(dumped)), dumped);
  EXPECT_EQ(json_parse(dumped)[1].as_string(), v[1].as_string());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {R"({"a":1,"a":2})", "tru", "nul", "falsey", "nulll", "[1,]", "{,}",
        R"({"a" 1})", "-", "1.", ".5", "+1", "1e", "1e+", "--1", "[1 2]",
        R"("abc)", R"("\x")", R"("\u12")", R"("\ud800")", "\"a\x01\"", "",
        "   ", "[", "{\"a\":}", "1 2", "NaN", "Infinity"}) {
    EXPECT_THROW((void)json_parse(bad), Error) << bad;
  }
}

TEST(JsonParseTest, ObjectsAndAccessors) {
  const JsonValue v = json_parse(
      R"( { "b" : [ 1 , 2.5 , "x" ] , "a" : { } , "c" : null , "d":true } )");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.at("b").size(), 3u);
  EXPECT_EQ(v.at("b")[2].as_string(), "x");
  EXPECT_TRUE(v.at("a").is_object());
  EXPECT_EQ(v.at("a").size(), 0u);
  EXPECT_TRUE(v.at("c").is_null());
  EXPECT_EQ(v.at("c").size(), 0u);
  EXPECT_TRUE(v.at("d").as_bool());
  EXPECT_EQ(v.find("zz"), nullptr);
  EXPECT_THROW((void)v.at("zz"), Error);
  EXPECT_THROW((void)v.at("b").as_string(), Error);
  EXPECT_THROW((void)v.at("b")[3], Error);
  EXPECT_THROW((void)v.at("b")[1].as_int64(), Error);
  EXPECT_THROW((void)json_parse("-1").as_uint64(), Error);
  EXPECT_EQ(json_dump(v), R"({"a":{},"b":[1,2.5,"x"],"c":null,"d":true})");
}

}  // namespace
}  // namespace maxev
