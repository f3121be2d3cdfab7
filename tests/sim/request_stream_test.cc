#include "sim/request_stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "content/trace.h"

namespace mfg::sim {
namespace {

RequestStreamOptions SmallOptions() {
  RequestStreamOptions options;
  options.num_contents = 8;
  options.num_requests = 5000;
  options.arrival_rate = 100.0;
  options.zipf_iota = 0.8;
  options.seed = 7;
  return options;
}

TEST(RequestStreamTest, GeneratesRequestedShape) {
  auto stream = GenerateRequestStream(SmallOptions());
  ASSERT_TRUE(stream.ok()) << stream.status();
  EXPECT_EQ(stream->size(), 5000u);
  EXPECT_EQ(stream->arrival_time.size(), stream->content.size());
}

TEST(RequestStreamTest, ArrivalTimesAreStrictlyIncreasing) {
  auto stream = GenerateRequestStream(SmallOptions());
  ASSERT_TRUE(stream.ok());
  for (std::size_t i = 1; i < stream->size(); ++i) {
    EXPECT_GT(stream->arrival_time[i], stream->arrival_time[i - 1]);
  }
  EXPECT_GT(stream->arrival_time.front(), 0.0);
}

TEST(RequestStreamTest, ContentsStayInCatalogRange) {
  auto stream = GenerateRequestStream(SmallOptions());
  ASSERT_TRUE(stream.ok());
  for (std::uint32_t k : stream->content) {
    EXPECT_LT(k, 8u);
  }
}

TEST(RequestStreamTest, SameSeedIsBitIdentical) {
  auto a = GenerateRequestStream(SmallOptions());
  auto b = GenerateRequestStream(SmallOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->content, b->content);
  EXPECT_EQ(a->arrival_time, b->arrival_time);
}

TEST(RequestStreamTest, DifferentSeedDiffers) {
  auto a = GenerateRequestStream(SmallOptions());
  RequestStreamOptions other = SmallOptions();
  other.seed = 8;
  auto b = GenerateRequestStream(other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->content, b->content);
}

TEST(RequestStreamTest, ZipfSkewFavorsContentZero) {
  auto stream = GenerateRequestStream(SmallOptions());
  ASSERT_TRUE(stream.ok());
  std::vector<std::uint64_t> counts;
  stream->CountRequestsInto(0, stream->size(), 8, counts);
  for (std::size_t k = 1; k < counts.size(); ++k) {
    EXPECT_GT(counts[0], counts[k]) << "content 0 should dominate a Zipf "
                                       "stream, lost to content " << k;
  }
}

TEST(RequestStreamTest, CountRequestsIntoMatchesManualCount) {
  auto stream = GenerateRequestStream(SmallOptions());
  ASSERT_TRUE(stream.ok());
  std::vector<std::uint64_t> counts;
  stream->CountRequestsInto(100, 400, 8, counts);
  std::vector<std::uint64_t> manual(8, 0);
  for (std::size_t i = 100; i < 400; ++i) {
    ++manual[stream->content[i]];
  }
  EXPECT_EQ(counts, manual);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, 300u);
}

TEST(RequestStreamTest, GenerateIntoReusesStorage) {
  RequestStream stream;
  ASSERT_TRUE(GenerateRequestStreamInto(SmallOptions(), nullptr, stream).ok());
  const std::size_t first_size = stream.size();
  ASSERT_TRUE(GenerateRequestStreamInto(SmallOptions(), nullptr, stream).ok());
  EXPECT_EQ(stream.size(), first_size);
}

TEST(RequestStreamTest, TraceModeFollowsDayWeights) {
  // Day 0 puts all weight on content 0, day 1 on content 1; with a day
  // period of 10 time units the drawn content identifies the day.
  content::Trace trace;
  trace.num_categories = 2;
  trace.daily_counts = {{100.0, 0.0}, {0.0, 100.0}};

  RequestStreamOptions options;
  options.num_contents = 2;
  options.num_requests = 2000;
  options.arrival_rate = 50.0;
  options.arrival = ArrivalProcess::kTrace;
  options.trace_day_period = 10.0;
  options.seed = 3;
  auto stream = GenerateRequestStream(options, &trace);
  ASSERT_TRUE(stream.ok()) << stream.status();
  for (std::size_t i = 0; i < stream->size(); ++i) {
    const std::size_t day =
        static_cast<std::size_t>(stream->arrival_time[i] / 10.0) % 2;
    EXPECT_EQ(stream->content[i], static_cast<std::uint32_t>(day))
        << "request " << i << " at t=" << stream->arrival_time[i];
  }
}

TEST(RequestStreamTest, TraceModeIgnoresExtraCategories) {
  content::Trace trace;
  trace.num_categories = 4;
  trace.daily_counts = {{1.0, 1.0, 50.0, 50.0}};

  RequestStreamOptions options;
  options.num_contents = 2;  // Categories 2 and 3 are outside the catalog.
  options.num_requests = 500;
  options.arrival = ArrivalProcess::kTrace;
  options.seed = 3;
  auto stream = GenerateRequestStream(options, &trace);
  ASSERT_TRUE(stream.ok()) << stream.status();
  for (std::uint32_t k : stream->content) {
    EXPECT_LT(k, 2u);
  }
}

TEST(RequestStreamTest, RejectsBadOptions) {
  RequestStreamOptions options = SmallOptions();
  options.num_contents = 0;
  EXPECT_FALSE(GenerateRequestStream(options).ok());

  options = SmallOptions();
  options.num_requests = 0;
  EXPECT_FALSE(GenerateRequestStream(options).ok());

  options = SmallOptions();
  options.arrival_rate = 0.0;
  EXPECT_FALSE(GenerateRequestStream(options).ok());

  options = SmallOptions();
  options.zipf_iota = -1.0;
  EXPECT_FALSE(GenerateRequestStream(options).ok());
}

TEST(RequestStreamTest, RejectsBadTraceSetups) {
  RequestStreamOptions options = SmallOptions();
  options.arrival = ArrivalProcess::kTrace;
  EXPECT_FALSE(GenerateRequestStream(options, nullptr).ok());

  content::Trace narrow;
  narrow.num_categories = 2;
  narrow.daily_counts = {{1.0, 1.0}};
  EXPECT_FALSE(GenerateRequestStream(options, &narrow).ok())
      << "trace narrower than the catalog must be rejected";

  content::Trace dead_day;
  dead_day.num_categories = 10;
  dead_day.daily_counts = {
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0}};
  EXPECT_FALSE(GenerateRequestStream(options, &dead_day).ok())
      << "a day with no requests inside the catalog must be rejected";
}

// Seeks past every request that arrived by `until`, the way
// RequestLedger::DrainUntil walks the cursor, and returns their content
// ids in the order read.
std::vector<std::uint32_t> DrainThrough(RequestStreamCursor& cursor,
                                        double until) {
  std::vector<std::uint32_t> read;
  std::size_t i = cursor.position();
  while (!cursor.AtEnd() && cursor.NextArrival() <= until) {
    read.push_back(cursor.stream()->content[i]);
    cursor.Seek(++i);
  }
  return read;
}

TEST(RequestStreamTest, CursorTailsTheStreamInOrder) {
  RequestStream stream;
  stream.arrival_time = {0.5, 1.0, 1.0, 3.5};
  stream.content = {2, 0, 1, 2};

  RequestStreamCursor cursor(stream);
  EXPECT_FALSE(cursor.AtEnd());
  EXPECT_EQ(cursor.position(), 0u);
  EXPECT_EQ(cursor.NextArrival(), 0.5);
  EXPECT_EQ(cursor.stream(), &stream);

  // Nothing has arrived before t=0.25; the cursor does not advance.
  EXPECT_TRUE(DrainThrough(cursor, 0.25).empty());
  EXPECT_EQ(cursor.position(), 0u);

  // Drain through t=1.0 inclusive: three requests, stream order.
  EXPECT_EQ(DrainThrough(cursor, 1.0), (std::vector<std::uint32_t>{2, 0, 1}));
  EXPECT_EQ(cursor.position(), 3u);
  EXPECT_TRUE(DrainThrough(cursor, 1.0).empty());
  EXPECT_EQ(cursor.NextArrival(), 3.5);

  EXPECT_EQ(DrainThrough(cursor, 10.0), (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(cursor.AtEnd());
  EXPECT_EQ(cursor.NextArrival(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(DrainThrough(cursor, 10.0).empty());

  // Seek is absolute: back to the second request.
  cursor.Seek(1);
  EXPECT_FALSE(cursor.AtEnd());
  EXPECT_EQ(cursor.position(), 1u);
  EXPECT_EQ(cursor.NextArrival(), 1.0);
}

TEST(RequestStreamTest, CursorRebindsAndHandlesUnbound) {
  RequestStreamCursor cursor;
  EXPECT_TRUE(cursor.AtEnd()) << "an unbound cursor is exhausted, not UB";
  EXPECT_EQ(cursor.NextArrival(), std::numeric_limits<double>::infinity());

  RequestStream stream;
  stream.arrival_time = {2.0};
  stream.content = {4};
  cursor.Bind(stream);
  EXPECT_FALSE(cursor.AtEnd());
  cursor.Seek(1);
  EXPECT_TRUE(cursor.AtEnd());
  // Bind rewinds: the same stream replays from the start.
  cursor.Bind(stream);
  EXPECT_EQ(cursor.position(), 0u);
  EXPECT_EQ(cursor.NextArrival(), 2.0);
}

TEST(RequestStreamTest, ParsesArrivalNames) {
  ArrivalProcess arrival = ArrivalProcess::kTrace;
  EXPECT_TRUE(ParseArrivalProcess("poisson", arrival));
  EXPECT_EQ(arrival, ArrivalProcess::kPoisson);
  EXPECT_TRUE(ParseArrivalProcess("trace", arrival));
  EXPECT_EQ(arrival, ArrivalProcess::kTrace);
  EXPECT_FALSE(ParseArrivalProcess("uniform", arrival));
}

}  // namespace
}  // namespace mfg::sim
