#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/run_report.hpp"

namespace p4u::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string printf_fixed(const char* fmt, double v) {
  char buf[512];  // room for "%.1f" of 1e300
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("p4u_json_test_" + name);
  fs::remove_all(dir);
  return dir;
}

TEST(JsonTest, StringsAreQuotedAndEscaped) {
  EXPECT_EQ(Json("plain").dump(), "\"plain\"");
  EXPECT_EQ(Json(std::string("a\"b\\c\nd\te\x01")).dump(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  // Object keys go through the same escaping.
  EXPECT_EQ(Json::object().set("k\"1", 1).dump(), "{\n  \"k\\\"1\": 1\n}");
}

TEST(JsonTest, FixedDecimalsMatchPrintf) {
  // Every value keeps the text the per-bench printf wrote for it.
  for (const double v : {0.0, 82.18149, 301.33275, 1e6 / 3.0, -2.5, 100.0}) {
    EXPECT_EQ(Json::fixed(v, 4).dump(), printf_fixed("%.4f", v)) << v;
    EXPECT_EQ(Json::fixed(v, 1).dump(), printf_fixed("%.1f", v)) << v;
    EXPECT_EQ(Json::fixed(v, 0).dump(), printf_fixed("%.0f", v)) << v;
    EXPECT_EQ(Json::fixed(v, 6).dump(), printf_fixed("%.6f", v)) << v;
  }
  EXPECT_EQ(Json::fixed(1e300, 1).dump(), printf_fixed("%.1f", 1e300));
  EXPECT_EQ(Json::fixed(32.0, 0).dump(), "32");
  EXPECT_EQ(Json::fixed(25.0, 1).dump(), "25.0");
}

TEST(JsonTest, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json::fixed(std::numeric_limits<double>::quiet_NaN(), 3).dump(),
            "null");
  EXPECT_EQ(Json::fixed(std::numeric_limits<double>::infinity(), 1).dump(),
            "null");
  EXPECT_EQ(Json::fixed(-std::numeric_limits<double>::infinity(), 0).dump(),
            "null");
  EXPECT_EQ(Json().dump(), "null");
}

TEST(JsonTest, IntegersBoolsAndNestedContainers) {
  Json doc = Json::object();
  doc.set("u64", std::uint64_t{18446744073709551615ull})
      .set("neg", -7)
      .set("size", std::size_t{50000})
      .set("yes", true)
      .set("no", false)
      .set("empty_array", Json::array())
      .set("empty_object", Json::object())
      .set("rows", Json::array()
                       .push(Json::object().set("a", 1).set(
                           "inner", Json::array().push(2).push("x")))
                       .push(3));
  EXPECT_EQ(doc.dump(),
            "{\n"
            "  \"u64\": 18446744073709551615,\n"
            "  \"neg\": -7,\n"
            "  \"size\": 50000,\n"
            "  \"yes\": true,\n"
            "  \"no\": false,\n"
            "  \"empty_array\": [],\n"
            "  \"empty_object\": {},\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"a\": 1,\n"
            "      \"inner\": [\n"
            "        2,\n"
            "        \"x\"\n"
            "      ]\n"
            "    },\n"
            "    3\n"
            "  ]\n"
            "}");
}

TEST(JsonTest, MisusedContainersThrow) {
  Json scalar(1);
  EXPECT_THROW(scalar.set("k", 1), std::logic_error);
  EXPECT_THROW(Json::object().push(1), std::logic_error);
  EXPECT_THROW(Json::array().set("k", 1), std::logic_error);
}

TEST(JsonTest, RawJsonIsEmbeddedVerbatim) {
  // Already-serialised values (verdict/witness JSON, schedules) go in as
  // they are; trailing whitespace is trimmed so they nest cleanly.
  const std::string verdict = "{\"verdict\":\"safe\",\"touched\":3}";
  EXPECT_EQ(Json::object().set("result", Json::raw(verdict)).dump(),
            "{\n  \"result\": " + verdict + "\n}");
  EXPECT_EQ(Json::raw("{\n  \"version\": 1\n}\n").dump(),
            "{\n  \"version\": 1\n}");
}

TEST(JsonTest, WriteJsonCreatesDirectoryAndEndsWithNewline) {
  const fs::path dir = scratch_dir("write");
  const std::string nested = (dir / "a" / "b").string();
  const std::string path =
      write_json(nested, "doc.json", Json::object().set("k", 1));
  EXPECT_EQ(path, (fs::path(nested) / "doc.json").string());
  EXPECT_EQ(slurp(path), "{\n  \"k\": 1\n}\n");
  // A pre-serialised document ending in a newline is written byte for byte.
  const std::string schedule = "{\n  \"version\": 1\n}\n";
  EXPECT_EQ(slurp(write_json(nested, "raw.json", Json::raw(schedule))),
            schedule);
  fs::remove_all(dir);
}

TEST(JsonTest, WriteJsonThrowsWhenTheDirectoryIsAFile) {
  const fs::path dir = scratch_dir("io_fail");
  fs::create_directories(dir);
  const fs::path blocker = dir / "not_a_dir";
  std::ofstream(blocker) << "x";
  // The parent of the target is a regular file: nothing can be written.
  EXPECT_THROW(write_json(blocker.string(), "BENCH_x.json", Json(1)),
               std::runtime_error);
  EXPECT_THROW(
      write_json((blocker / "sub").string(), "BENCH_x.json", Json(1)),
      std::runtime_error);
  fs::remove_all(dir);
}

TEST(JsonTest, BenchHeadCarriesTheMachineBlock) {
  const std::string text = bench_json("demo", true).dump();
  EXPECT_EQ(text.rfind("{\n  \"bench\": \"demo\",\n  \"mode\": \"smoke\",\n"
                       "  \"machine\": {\n    \"cpu\": ",
                       0),
            0u)
      << text;
  for (const char* key :
       {"\"cores\": ", "\"build_type\": ", "\"compiler\": "}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
  EXPECT_NE(bench_json("demo", false).dump().find("\"mode\": \"full\""),
            std::string::npos);
}

}  // namespace
}  // namespace p4u::obs
