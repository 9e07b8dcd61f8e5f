// Unit tests for common utilities: strings, ids, config, logging,
// statistics and random distributions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ripple/common/config.hpp"
#include "ripple/common/error.hpp"
#include "ripple/common/ids.hpp"
#include "ripple/common/json.hpp"
#include "ripple/common/logging.hpp"
#include "ripple/common/random.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/common/strutil.hpp"

namespace {

using namespace ripple;
using common::Distribution;
using common::Rng;

// ---------------------------------------------------------------------------
// strutil
// ---------------------------------------------------------------------------

TEST(Strutil, SplitKeepsEmptyFields) {
  EXPECT_EQ(strutil::split("a.b..c", '.'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(strutil::split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(strutil::split("one", '.'), (std::vector<std::string>{"one"}));
}

TEST(Strutil, JoinInvertsSplit) {
  const std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(strutil::join(parts, "."), "a.b.c");
  EXPECT_EQ(strutil::split(strutil::join(parts, ","), ','), parts);
  EXPECT_EQ(strutil::join({}, "."), "");
}

TEST(Strutil, Trim) {
  EXPECT_EQ(strutil::trim("  a b  "), "a b");
  EXPECT_EQ(strutil::trim("\t\n x \r"), "x");
  EXPECT_EQ(strutil::trim("   "), "");
  EXPECT_EQ(strutil::trim(""), "");
}

TEST(Strutil, StartsEndsWith) {
  EXPECT_TRUE(strutil::starts_with("task.000001", "task."));
  EXPECT_FALSE(strutil::starts_with("task", "task."));
  EXPECT_TRUE(strutil::ends_with("file.csv", ".csv"));
  EXPECT_FALSE(strutil::ends_with("csv", ".csv"));
}

TEST(Strutil, Padding) {
  EXPECT_EQ(strutil::pad_left("ab", 5), "   ab");
  EXPECT_EQ(strutil::pad_right("ab", 5), "ab   ");
  EXPECT_EQ(strutil::pad_left("abcdef", 3), "abcdef");
  EXPECT_EQ(strutil::zero_pad(42, 6), "000042");
}

TEST(Strutil, FormatDurationAdaptiveUnits) {
  EXPECT_EQ(strutil::format_duration(2.5e-9), "2.5 ns");
  EXPECT_EQ(strutil::format_duration(63e-6), "63.0 us");
  EXPECT_EQ(strutil::format_duration(0.47e-3), "470.0 us");
  EXPECT_EQ(strutil::format_duration(4.7e-3), "4.70 ms");
  EXPECT_EQ(strutil::format_duration(32.0), "32.00 s");
  EXPECT_EQ(strutil::format_duration(600.0), "10.0 min");
  EXPECT_EQ(strutil::format_duration(7200.0), "2.00 h");
}

TEST(Strutil, LazyFormattersStreamLikeTheirFunctions) {
  EXPECT_EQ(strutil::cat(strutil::Duration{4.7e-3}), "4.70 ms");
  EXPECT_EQ(strutil::cat(strutil::Fixed{1.23456, 2}), "1.23");
}

// strutil::cat, format_fixed and zero_pad format without a stream; they
// must write exactly what the stream did, byte for byte.
namespace reference {

template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

std::string fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string zero_pad(std::uint64_t value, int width) {
  std::ostringstream os;
  os << std::setw(width) << std::setfill('0') << value;
  return os.str();
}

}  // namespace reference

std::vector<double> special_doubles() {
  using limits = std::numeric_limits<double>;
  return {0.0,          -0.0,           limits::denorm_min(),
          -limits::denorm_min(), 4.9e-320, limits::min(),
          limits::max(), limits::lowest(), limits::infinity(),
          -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN(),
          1e300,        -1e300,         1e-300,
          -1e-300,      0.5,            123456.5,
          999999.5,     1e-5,           0.0001,
          1e16,         2.5e-9,         100.0};
}

/// Random doubles from random bit patterns (every exponent, subnormals,
/// NaN payloads) and from values in the usual decimal ranges.
std::vector<double> random_doubles(std::mt19937_64& gen, int n) {
  std::vector<double> out = special_doubles();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bits = gen();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    out.push_back(value);
    const double mantissa =
        std::uniform_real_distribution<double>(-10.0, 10.0)(gen);
    const int exponent = std::uniform_int_distribution<int>(-12, 12)(gen);
    out.push_back(mantissa * std::pow(10.0, exponent));
  }
  return out;
}

TEST(Strutil, CatMatchesOstreamOnRandomParts) {
  std::mt19937_64 gen(20261019);
  for (const double value : random_doubles(gen, 2000)) {
    ASSERT_EQ(strutil::cat(value), reference::cat(value)) << value;
    const auto single = static_cast<float>(value);
    ASSERT_EQ(strutil::cat(single), reference::cat(single)) << single;
  }
  const long double wide = 1.0L / 3.0L;
  EXPECT_EQ(strutil::cat(wide, -wide * 1e300L),
            reference::cat(wide, -wide * 1e300L));
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = gen();
    const auto i64 = static_cast<std::int64_t>(bits);
    const auto i32 = static_cast<std::int32_t>(bits);
    const auto u32 = static_cast<std::uint32_t>(bits);
    const auto i16 = static_cast<short>(bits);
    const auto u16 = static_cast<unsigned short>(bits);
    const auto ch = static_cast<char>(bits % 95 + 32);
    const auto sch = static_cast<signed char>(bits % 95 + 32);
    const auto uch = static_cast<unsigned char>(bits % 95 + 32);
    const bool flag = (bits & 1) != 0;
    const std::string text(bits % 20, ch);
    ASSERT_EQ(strutil::cat(bits, " ", i64, ':', i32, u32, i16, u16, ch, sch,
                           uch, flag, text, std::string_view(text)),
              reference::cat(bits, " ", i64, ':', i32, u32, i16, u16, ch,
                             sch, uch, flag, text, std::string_view(text)));
  }
  const std::int64_t extremes[] = {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max(),
                                   0, -1};
  for (const auto value : extremes) {
    EXPECT_EQ(strutil::cat(value), reference::cat(value));
  }
  const char* c_string = "c-string";
  char buffer[] = "char-array";
  EXPECT_EQ(strutil::cat(c_string, buffer, true, false, '\0', 'x'),
            reference::cat(c_string, buffer, true, false, '\0', 'x'));
  // A type with only operator<< goes through a stream.
  EXPECT_EQ(strutil::cat(strutil::Fixed{2.0 / 3.0, 4}, "|",
                         strutil::Duration{0.25}),
            "0.6667|250.00 ms");
  EXPECT_EQ(strutil::cat(), "");
}

TEST(Strutil, FormatFixedMatchesOstream) {
  std::mt19937_64 gen(7);
  for (const double value : random_doubles(gen, 1000)) {
    for (const int precision : {0, 1, 2, 3, 6, 9, 17, -1}) {
      ASSERT_EQ(strutil::format_fixed(value, precision),
                reference::fixed(value, precision))
          << value << " at precision " << precision;
    }
  }
  EXPECT_EQ(strutil::format_fixed(std::numeric_limits<double>::max(), 40),
            reference::fixed(std::numeric_limits<double>::max(), 40));
}

TEST(Strutil, ZeroPadMatchesOstream) {
  std::mt19937_64 gen(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t value = gen() >> (gen() % 64);
    const int width = static_cast<int>(gen() % 24) - 2;
    ASSERT_EQ(strutil::zero_pad(value, width),
              reference::zero_pad(value, width))
        << value << " width " << width;
  }
  EXPECT_EQ(strutil::zero_pad(0, 0), reference::zero_pad(0, 0));
  EXPECT_EQ(strutil::zero_pad(0, 3), "000");
}

TEST(Strutil, FormatBytes) {
  EXPECT_EQ(strutil::format_bytes(512), "512 B");
  EXPECT_EQ(strutil::format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(strutil::format_bytes(1.6e12), "1.5 TiB");
}

// ---------------------------------------------------------------------------
// error
// ---------------------------------------------------------------------------

TEST(ErrorHandling, CodeAndMessage) {
  try {
    raise(Errc::not_found, "thing is missing");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::not_found);
    EXPECT_NE(std::string(e.what()).find("not_found"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("thing is missing"),
              std::string::npos);
  }
}

/// A message part that counts how often it is formatted.
struct CountingPart {
  int* formats;
  int value;
};

std::ostream& operator<<(std::ostream& os, const CountingPart& part) {
  ++*part.formats;
  return os << "part#" << part.value;
}

TEST(ErrorHandling, EnsurePassesAndThrows) {
  EXPECT_NO_THROW(ensure(true, Errc::internal, "fine"));
  EXPECT_THROW(ensure(false, Errc::capacity, "nope"), Error);

  // A passing check formats none of its parts.
  int formats = 0;
  const CountingPart part{&formats, 7};
  ensure(true, Errc::internal, "node ", part, " at ", 2.5);
  EXPECT_EQ(formats, 0);

  // A failing one formats them once, into the text strutil::cat gives.
  const std::string expected = strutil::cat("node ", part, " at ", 2.5);
  formats = 0;
  try {
    ensure(false, Errc::capacity, "node ", part, " at ", 2.5);
    FAIL() << "a failing ensure() did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::capacity);
    EXPECT_STREQ(e.what(), Error(Errc::capacity, expected).what());
    EXPECT_EQ(formats, 1);
  }
}

// ---------------------------------------------------------------------------
// ids
// ---------------------------------------------------------------------------

TEST(Ids, MonotonicPerPrefix) {
  common::IdGenerator gen;
  EXPECT_EQ(gen.next("task"), "task.000000");
  EXPECT_EQ(gen.next("task"), "task.000001");
  EXPECT_EQ(gen.next("svc"), "svc.000000");
  EXPECT_EQ(gen.count("task"), 2u);
  gen.reset();
  EXPECT_EQ(gen.next("task"), "task.000000");
}

// ---------------------------------------------------------------------------
// logging
// ---------------------------------------------------------------------------

TEST(Logging, MemorySinkCapturesAboveThreshold) {
  auto sink = std::make_shared<common::MemorySink>();
  common::LogConfig::global().set_sink(sink);
  common::LogConfig::global().set_level(common::LogLevel::info);

  common::Logger log("test", [] { return 12.5; });
  log.debug("hidden");
  log.info("visible");
  log.error("loud");

  EXPECT_EQ(sink->count(common::LogLevel::debug), 0u);
  EXPECT_EQ(sink->count(common::LogLevel::info), 1u);
  EXPECT_EQ(sink->count(common::LogLevel::error), 1u);
  EXPECT_DOUBLE_EQ(sink->records().front().time, 12.5);
  EXPECT_EQ(sink->records().front().logger, "test");

  common::LogConfig::global().set_sink(nullptr);
  common::LogConfig::global().set_level(common::LogLevel::warn);
}

TEST(Logging, FormatsOnlyRecordsThatPassTheThreshold) {
  auto sink = std::make_shared<common::MemorySink>();
  common::LogConfig::global().set_sink(sink);
  common::LogConfig::global().set_level(common::LogLevel::info);

  int formats = 0;
  const CountingPart part{&formats, 3};
  common::Logger log("test");
  log.debug("hidden ", part);
  EXPECT_EQ(formats, 0);
  EXPECT_EQ(sink->records().size(), 0u);

  log.info("shown ", part, " x", 1.5);
  EXPECT_EQ(formats, 1);
  ASSERT_EQ(sink->records().size(), 1u);
  EXPECT_EQ(sink->records().front().message,
            strutil::cat("shown ", part, " x", 1.5));

  common::LogConfig::global().set_sink(nullptr);
  common::LogConfig::global().set_level(common::LogLevel::warn);
}

TEST(Logging, JsonLinesSinkEmitsParsableRecords) {
  auto sink = std::make_shared<common::JsonLinesSink>();
  common::LogConfig::global().set_sink(sink);
  common::LogConfig::global().set_level(common::LogLevel::info);

  common::Logger log("tracer", [] { return 3.75; });
  log.info("span opened");
  log.warn(R"(quotes " and \ backslashes survive)");

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  ASSERT_EQ(sink->size(), 2u);
  const auto first = json::Value::parse(lines[0]);
  EXPECT_DOUBLE_EQ(first.at("time").as_double(), 3.75);
  EXPECT_EQ(first.at("level").as_string(), "INFO");
  EXPECT_EQ(first.at("logger").as_string(), "tracer");
  EXPECT_EQ(first.at("message").as_string(), "span opened");
  // Every line must round-trip: escaping is the whole point of the
  // JSON-lines format.
  const auto second = json::Value::parse(lines[1]);
  EXPECT_EQ(second.at("message").as_string(),
            R"(quotes " and \ backslashes survive)");
  sink->clear();
  EXPECT_EQ(sink->size(), 0u);

  common::LogConfig::global().set_sink(nullptr);
  common::LogConfig::global().set_level(common::LogLevel::warn);
}

// ---------------------------------------------------------------------------
// config
// ---------------------------------------------------------------------------

TEST(Config, DottedPathLookups) {
  const auto config = common::Config::from_string(
      R"({"platform": {"network": {"latency_ms": 0.063, "up": true},
          "name": "delta"}, "count": 4})");
  EXPECT_DOUBLE_EQ(config.get_double("platform.network.latency_ms", -1),
                   0.063);
  EXPECT_TRUE(config.get_bool("platform.network.up", false));
  EXPECT_EQ(config.get_string("platform.name", "?"), "delta");
  EXPECT_EQ(config.get_int("count", -1), 4);
  EXPECT_EQ(config.get_int("missing.path", 7), 7);
  EXPECT_TRUE(config.has("platform.network"));
  EXPECT_FALSE(config.has("platform.storage"));
}

TEST(Config, SetCreatesIntermediateObjects) {
  common::Config config;
  config.set("a.b.c", json::Value(3));
  EXPECT_EQ(config.get_int("a.b.c", -1), 3);
  config.set("a.b.c", json::Value(4));
  EXPECT_EQ(config.get_int("a.b.c", -1), 4);
}

TEST(Config, DeepMergeOverlay) {
  auto base = common::Config::from_string(
      R"({"a": {"x": 1, "y": 2}, "keep": "base"})");
  const auto overlay = common::Config::from_string(
      R"({"a": {"y": 20, "z": 30}, "new": true})");
  base.merge(overlay);
  EXPECT_EQ(base.get_int("a.x", -1), 1);
  EXPECT_EQ(base.get_int("a.y", -1), 20);
  EXPECT_EQ(base.get_int("a.z", -1), 30);
  EXPECT_EQ(base.get_string("keep", ""), "base");
  EXPECT_TRUE(base.get_bool("new", false));
}

TEST(Config, RejectsNonObjectRoot) {
  EXPECT_THROW((void)common::Config::from_string("[1,2]"), Error);
  EXPECT_THROW((void)common::Config::from_file("/nonexistent/x.json"),
               Error);
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

TEST(OnlineStats, WelfordMatchesClosedForm) {
  common::OnlineStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  common::OnlineStats a;
  common::OnlineStats b;
  common::OnlineStats both;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    both.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_NEAR(a.mean(), both.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), both.variance(), 1e-9);
}

TEST(Summary, QuantilesInterpolate) {
  common::Summary summary;
  for (int i = 1; i <= 100; ++i) summary.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(summary.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(summary.quantile(1.0), 100.0);
  EXPECT_NEAR(summary.median(), 50.5, 1e-9);
  EXPECT_NEAR(summary.p95(), 95.05, 1e-9);
  EXPECT_THROW((void)summary.quantile(1.5), Error);
  EXPECT_THROW((void)common::Summary().quantile(0.5), Error);
}

TEST(Summary, JsonExport) {
  common::Summary summary;
  summary.add(1.0);
  summary.add(3.0);
  const auto j = summary.to_json();
  EXPECT_EQ(j.at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(j.at("mean").as_double(), 2.0);
}

TEST(Histogram, BinsAndSaturation) {
  common::Histogram hist(0.0, 10.0, 5);
  hist.add(-1.0);   // clamps to bin 0
  hist.add(0.5);
  hist.add(5.0);
  hist.add(99.0);   // clamps to last bin
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_EQ(hist.count(0), 2u);
  EXPECT_EQ(hist.count(2), 1u);
  EXPECT_EQ(hist.count(4), 1u);
  EXPECT_DOUBLE_EQ(hist.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(1), 4.0);
  EXPECT_THROW((void)hist.count(9), Error);
  EXPECT_THROW(common::Histogram(1.0, 1.0, 4), Error);
}

// ---------------------------------------------------------------------------
// random
// ---------------------------------------------------------------------------

TEST(Random, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Random, ForkDecorrelatesStreams) {
  Rng parent(5);
  Rng child_a = parent.fork("alpha");
  Rng child_b = parent.fork("beta");
  Rng child_a2 = Rng(5).fork("alpha");
  EXPECT_DOUBLE_EQ(child_a.uniform(0, 1), child_a2.uniform(0, 1));
  // Different tags give different streams (overwhelmingly likely).
  EXPECT_NE(child_a.uniform(0, 1), child_b.uniform(0, 1));
}

// The stream a forked Rng draws is fixed by (seed, tag): seeding its
// engine on the first draw must give what seeding at construction did.
TEST(Random, LazyForkDrawsLikeEagerSeeding) {
  const auto fnv = [](const std::string& tag) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : tag) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return h;
  };
  const auto splitmix = [](std::uint64_t x) {
    x += 0x9E3779B97f4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  };
  std::mt19937_64 gen(99);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t seed = gen();
    const std::string tag = "task." + std::to_string(gen() % 1000000);
    Rng child = Rng(seed).fork(tag);
    const std::uint64_t child_seed = splitmix(seed ^ fnv(tag));
    EXPECT_EQ(child.seed(), child_seed);
    std::mt19937_64 eager(splitmix(child_seed));
    for (int draw = 0; draw < 20; ++draw) {
      ASSERT_EQ(child.uniform_int(0, 1'000'000'000'000),
                std::uniform_int_distribution<std::int64_t>(
                    0, 1'000'000'000'000)(eager));
      ASSERT_EQ(child.uniform(0.0, 1.0),
                std::uniform_real_distribution<double>(0.0, 1.0)(eager));
    }
  }
}

TEST(Random, CopyAndMoveKeepEngineState) {
  std::mt19937_64 gen(4);
  for (int i = 0; i < 20; ++i) {
    Rng original(gen());
    const auto drawn = static_cast<int>(gen() % 5);  // 0: still unseeded
    for (int d = 0; d < drawn; ++d) (void)original.uniform(0.0, 1.0);

    Rng copy(original);
    Rng assigned(1);
    (void)assigned.uniform(0.0, 1.0);
    assigned = original;
    Rng moved_from(original);
    Rng moved(std::move(moved_from));
    Rng move_assigned(2);
    Rng move_source(original);
    move_assigned = std::move(move_source);

    for (int d = 0; d < 10; ++d) {
      const double expected = original.uniform(0.0, 1.0);
      ASSERT_EQ(copy.uniform(0.0, 1.0), expected);
      ASSERT_EQ(assigned.uniform(0.0, 1.0), expected);
      ASSERT_EQ(moved.uniform(0.0, 1.0), expected);
      ASSERT_EQ(move_assigned.uniform(0.0, 1.0), expected);
    }
  }
}

TEST(Random, WeightedIndexRespectsWeights) {
  Rng rng(9);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    ++counts[rng.weighted_index({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
  EXPECT_THROW((void)rng.weighted_index({}), Error);
  EXPECT_THROW((void)rng.weighted_index({0.0, 0.0}), Error);
}

struct DistCase {
  const char* name;
  Distribution dist;
  double expected_mean;
  double tolerance;
};

class DistributionSampling : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionSampling, EmpiricalMeanMatchesAnalytic) {
  const auto& param = GetParam();
  Rng rng(2024);
  common::OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double x = param.dist.sample(rng);
    EXPECT_GE(x, 0.0) << "durations must be non-negative";
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), param.expected_mean,
              param.tolerance * param.expected_mean);
  EXPECT_NEAR(param.dist.mean(), param.expected_mean,
              param.tolerance * param.expected_mean);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, DistributionSampling,
    ::testing::Values(
        DistCase{"constant", Distribution::constant(4.2), 4.2, 1e-9},
        DistCase{"uniform", Distribution::uniform(2.0, 6.0), 4.0, 0.02},
        DistCase{"normal", Distribution::normal(10.0, 1.0), 10.0, 0.02},
        DistCase{"lognormal", Distribution::lognormal(8.0, 0.25),
                 8.0 * std::exp(0.25 * 0.25 / 2.0), 0.03},
        DistCase{"exponential", Distribution::exponential(3.0), 3.0, 0.05}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      return info.param.name;
    });

TEST(Distribution, JsonRoundTrip) {
  const auto original = Distribution::normal(0.063e-3, 0.014e-3, 1e-6);
  const auto reparsed = Distribution::from_json(original.to_json());
  Rng a(1);
  Rng b(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(original.sample(a), reparsed.sample(b));
  }
}

TEST(Distribution, FromJsonScalarShorthand) {
  const auto d = Distribution::from_json(json::Value(2.5));
  EXPECT_EQ(d.kind(), Distribution::Kind::constant);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(d.sample(rng), 2.5);
}

TEST(Distribution, FromJsonRejectsUnknownKind) {
  EXPECT_THROW((void)Distribution::from_json(json::Value::parse(
                   R"({"kind":"zipf","a":1})")),
               Error);
}

TEST(Distribution, NormalClampedAtFloor) {
  const auto d = Distribution::normal(0.0, 1.0, 0.5);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(d.sample(rng), 0.5);
  }
}

TEST(Distribution, ScaledScalesMean) {
  const auto d = Distribution::normal(10.0, 2.0).scaled(0.5);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_THROW((void)d.scaled(0.0), Error);
  const auto log_scaled = Distribution::lognormal(8.0, 0.3).scaled(2.0);
  EXPECT_NEAR(log_scaled.mean(),
              16.0 * std::exp(0.3 * 0.3 / 2.0), 1e-9);
}

TEST(Distribution, ValidationErrors) {
  EXPECT_THROW((void)Distribution::uniform(5.0, 1.0), Error);
  EXPECT_THROW((void)Distribution::normal(1.0, -1.0), Error);
  EXPECT_THROW((void)Distribution::lognormal(0.0, 0.3), Error);
  EXPECT_THROW((void)Distribution::exponential(0.0), Error);
}

}  // namespace
