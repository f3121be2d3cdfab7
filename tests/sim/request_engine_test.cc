// Replay-engine semantics: a hand-checkable golden replay, reference-
// implementation cross-checks for the request-level cache policies, the
// classic cache invariants (LRU stack property, offline-static
// optimality), and the epoch-boundary replan seam (counts handed to the
// hook, degraded-not-fatal fault handling).

#include "sim/request_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "baselines/request_cache.h"
#include "core/fault_injection.h"
#include "sim/request_stream.h"

namespace mfg::sim {
namespace {

RequestStream LiteralStream(std::vector<double> times,
                            std::vector<std::uint32_t> contents) {
  RequestStream stream;
  stream.arrival_time = std::move(times);
  stream.content = std::move(contents);
  return stream;
}

RequestStream SeededStream(std::size_t num_contents, std::size_t num_requests,
                           std::uint64_t seed) {
  RequestStreamOptions options;
  options.num_contents = num_contents;
  options.num_requests = num_requests;
  options.arrival_rate = 100.0;
  options.seed = seed;
  auto stream = GenerateRequestStream(options);
  EXPECT_TRUE(stream.ok()) << stream.status();
  return std::move(stream).value();
}

RequestEngineOptions GoldenOptions(std::size_t num_contents,
                                   std::size_t capacity) {
  RequestEngineOptions options;
  options.num_contents = num_contents;
  options.cache_capacity = capacity;
  options.content_size_mb = 100.0;   // Hit delay 100/200 = 0.5.
  options.edge_rate_mb = 200.0;
  options.backhaul_rate_mb = 40.0;   // Miss delay 0.5 + 100/40 = 3.0.
  options.backhaul_latency = 0.5;
  return options;
}

// Textbook LRU over std::list — the slow-but-obviously-correct oracle
// the flat-array LruCache is checked against.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool OnRequest(std::uint32_t content) {
    auto it = std::find(order_.begin(), order_.end(), content);
    if (it != order_.end()) {
      order_.erase(it);
      order_.push_front(content);
      return true;
    }
    if (order_.size() == capacity_) order_.pop_back();
    order_.push_front(content);
    return false;
  }

 private:
  std::size_t capacity_;
  std::list<std::uint32_t> order_;
};

// Perfect-LFU oracle: evict the resident with the fewest lifetime
// requests, ties toward the smaller id.
class ReferenceLfu {
 public:
  ReferenceLfu(std::size_t capacity) : capacity_(capacity) {}

  bool OnRequest(std::uint32_t content) {
    ++frequency_[content];
    if (resident_.count(content) != 0) return true;
    if (resident_.size() == capacity_) {
      std::uint32_t victim = *resident_.begin();
      for (std::uint32_t r : resident_) {
        if (frequency_[r] < frequency_[victim] ||
            (frequency_[r] == frequency_[victim] && r < victim)) {
          victim = r;
        }
      }
      resident_.erase(victim);
    }
    resident_.insert(content);
    return false;
  }

  const std::set<std::uint32_t>& residents() const { return resident_; }

 private:
  std::size_t capacity_;
  std::map<std::uint32_t, std::uint64_t> frequency_;
  std::set<std::uint32_t> resident_;
};

// Popularity-greedy oracle: count every request; a miss is admitted while
// the cache fills, and afterwards only when its count (after this
// request) strictly beats the coldest resident's — fewest requests, ties
// toward the smaller id — which it then evicts.
class ReferencePopularityGreedy {
 public:
  ReferencePopularityGreedy(std::size_t capacity) : capacity_(capacity) {}

  bool OnRequest(std::uint32_t content) {
    ++count_[content];
    if (resident_.count(content) != 0) return true;
    if (resident_.size() < capacity_) {
      resident_.insert(content);
      return false;
    }
    std::uint32_t victim = *resident_.begin();
    for (std::uint32_t r : resident_) {
      if (count_[r] < count_[victim] ||
          (count_[r] == count_[victim] && r < victim)) {
        victim = r;
      }
    }
    if (count_[content] > count_[victim]) {
      resident_.erase(victim);
      resident_.insert(content);
    }
    return false;
  }

  const std::set<std::uint32_t>& residents() const { return resident_; }

 private:
  std::size_t capacity_;
  std::map<std::uint32_t, std::uint64_t> count_;
  std::set<std::uint32_t> resident_;
};

// Content ids 0..num_contents-1 in order, `rounds` times over: every
// content's count ties with every other's at each round's end, so every
// eviction is decided by the id tie-break.
std::vector<std::uint32_t> RoundRobinStream(std::size_t num_contents,
                                            std::size_t rounds) {
  std::vector<std::uint32_t> stream;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::uint32_t k = 0; k < num_contents; ++k) stream.push_back(k);
  }
  return stream;
}

// Resets `cache` to the catalog shape and replays `stream` through it and
// a fresh oracle side by side, checking the hit bit and the whole
// resident set after every request: IsCached over every content holds as
// many residents as the oracle's set, and each of the oracle's.
template <typename Reference>
void ExpectSameDecisions(baselines::RequestCachePolicy& cache,
                         std::size_t num_contents, std::size_t capacity,
                         const std::vector<std::uint32_t>& stream,
                         const char* label) {
  ASSERT_TRUE(cache.Reset(num_contents, capacity, {}).ok());
  Reference reference(capacity);
  for (std::size_t r = 0; r < stream.size(); ++r) {
    const std::uint32_t k = stream[r];
    ASSERT_EQ(cache.OnRequest(k), reference.OnRequest(k))
        << cache.name() << " " << label << " capacity " << capacity
        << ": hit bit of request " << r << " (content " << k << ")";
    std::size_t cached = 0;
    for (std::uint32_t c = 0; c < num_contents; ++c) {
      cached += cache.IsCached(c) ? 1 : 0;
    }
    ASSERT_EQ(cached, reference.residents().size())
        << cache.name() << " " << label << " capacity " << capacity
        << ": resident count after request " << r;
    for (std::uint32_t c : reference.residents()) {
      ASSERT_TRUE(cache.IsCached(c))
          << cache.name() << " " << label << " capacity " << capacity
          << ": content " << c << " not resident after request " << r;
    }
  }
}

// One cache object per capacity, Reset across two catalog shapes: the
// request_sweep shape (4096-content Zipf), a tie-heavy round robin over
// 160 contents, then the Zipf shape again.
template <typename Cache, typename Reference>
void ExpectMatchesReferenceDecisionByDecision() {
  constexpr std::size_t kZipfContents = 4096;
  constexpr std::size_t kRoundRobinContents = 160;
  const RequestStream zipf = SeededStream(kZipfContents, 3000, 17);
  const std::vector<std::uint32_t> round_robin =
      RoundRobinStream(kRoundRobinContents, 12);
  for (std::size_t capacity : {1u, 2u, 7u, 16u, 32u, 128u}) {
    Cache cache;
    ExpectSameDecisions<Reference>(cache, kZipfContents, capacity,
                                   zipf.content, "zipf");
    ExpectSameDecisions<Reference>(cache, kRoundRobinContents, capacity,
                                   round_robin, "round-robin");
    ExpectSameDecisions<Reference>(cache, kZipfContents, capacity,
                                   zipf.content, "zipf after reset");
  }
}

TEST(RequestEngineTest, GoldenLruReplayByHand) {
  // Capacity-1 LRU over contents 0/1: hit exactly when the previous
  // request was the same content.
  //   0 miss, 0 hit, 1 miss, 1 hit, 0 miss, 0 hit  ->  3 hits, 3 misses.
  const RequestStream stream =
      LiteralStream({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, {0, 0, 1, 1, 0, 0});
  const RequestEngine engine(GoldenOptions(2, 1));
  baselines::LruCache lru;
  ASSERT_TRUE(lru.Reset(2, 1, {}).ok());
  RequestEngine::Workspace workspace;
  RequestReplayStats stats;
  ASSERT_TRUE(engine.ReplayInto(stream, lru, nullptr, workspace, stats).ok());

  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  // 3 hits at 0.5 + 3 misses at 3.0 = 10.5 total; mean 1.75.
  EXPECT_DOUBLE_EQ(stats.total_delay, 10.5);
  EXPECT_DOUBLE_EQ(stats.MeanDelay(), 1.75);
  // Each miss pulls the 100 MB content over the backhaul.
  EXPECT_DOUBLE_EQ(stats.backhaul_mb, 300.0);
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 0.5);
  EXPECT_DOUBLE_EQ(stats.horizon, 6.0);
  EXPECT_DOUBLE_EQ(stats.BackhaulRate(), 50.0);
  EXPECT_EQ(stats.replans, 0u);
}

TEST(RequestEngineTest, LruMatchesReferenceImplementation) {
  const RequestStream stream = SeededStream(16, 20000, 11);
  for (std::size_t capacity : {1u, 3u, 7u}) {
    const RequestEngine engine(GoldenOptions(16, capacity));
    baselines::LruCache lru;
    ASSERT_TRUE(lru.Reset(16, capacity, {}).ok());
    RequestEngine::Workspace workspace;
    RequestReplayStats stats;
    ASSERT_TRUE(
        engine.ReplayInto(stream, lru, nullptr, workspace, stats).ok());

    ReferenceLru reference(capacity);
    std::uint64_t reference_hits = 0;
    for (std::uint32_t k : stream.content) {
      if (reference.OnRequest(k)) ++reference_hits;
    }
    EXPECT_EQ(stats.hits, reference_hits) << "capacity " << capacity;
  }
}

TEST(RequestEngineTest, LfuMatchesReferenceImplementation) {
  const RequestStream stream = SeededStream(16, 20000, 12);
  for (std::size_t capacity : {1u, 3u, 7u}) {
    const RequestEngine engine(GoldenOptions(16, capacity));
    baselines::LfuCache lfu;
    ASSERT_TRUE(lfu.Reset(16, capacity, {}).ok());
    RequestEngine::Workspace workspace;
    RequestReplayStats stats;
    ASSERT_TRUE(
        engine.ReplayInto(stream, lfu, nullptr, workspace, stats).ok());

    ReferenceLfu reference(capacity);
    std::uint64_t reference_hits = 0;
    for (std::uint32_t k : stream.content) {
      if (reference.OnRequest(k)) ++reference_hits;
    }
    EXPECT_EQ(stats.hits, reference_hits) << "capacity " << capacity;
  }
}

TEST(RequestEngineTest, LfuMatchesReferenceDecisionByDecision) {
  ExpectMatchesReferenceDecisionByDecision<baselines::LfuCache,
                                           ReferenceLfu>();
}

TEST(RequestEngineTest, PopularityGreedyMatchesReferenceDecisionByDecision) {
  ExpectMatchesReferenceDecisionByDecision<baselines::PopularityGreedyCache,
                                           ReferencePopularityGreedy>();
}

TEST(RequestEngineTest, LruHitRatioIsMonotoneInCapacity) {
  // The LRU stack property: a larger LRU cache contains a smaller one, so
  // the hit count never decreases with capacity.
  const RequestStream stream = SeededStream(20, 30000, 13);
  std::uint64_t previous_hits = 0;
  for (std::size_t capacity : {1u, 2u, 4u, 8u, 16u}) {
    const RequestEngine engine(GoldenOptions(20, capacity));
    baselines::LruCache lru;
    ASSERT_TRUE(lru.Reset(20, capacity, {}).ok());
    RequestEngine::Workspace workspace;
    RequestReplayStats stats;
    ASSERT_TRUE(
        engine.ReplayInto(stream, lru, nullptr, workspace, stats).ok());
    EXPECT_GE(stats.hits, previous_hits) << "capacity " << capacity;
    previous_hits = stats.hits;
  }
}

TEST(RequestEngineTest, OfflineTopSetBeatsEveryOtherStaticSet) {
  // Offline-static optimality: the top-C contents by realized counts hit
  // at least as often as any other static C-set (hits of a static set =
  // sum of its contents' counts).
  const RequestStream stream = SeededStream(10, 10000, 14);
  std::vector<std::uint64_t> counts;
  stream.CountRequestsInto(0, stream.size(), 10, counts);
  std::vector<double> score(counts.begin(), counts.end());

  constexpr std::size_t kCapacity = 3;
  std::vector<std::uint32_t> top;
  baselines::SelectTopByScore(score, kCapacity, top);

  const RequestEngine engine(GoldenOptions(10, kCapacity));
  baselines::StaticSetCache best("OPT");
  ASSERT_TRUE(best.Reset(10, kCapacity, {}).ok());
  ASSERT_TRUE(best.Assign(top).ok());
  RequestEngine::Workspace workspace;
  RequestReplayStats best_stats;
  ASSERT_TRUE(
      engine.ReplayInto(stream, best, nullptr, workspace, best_stats).ok());

  // Exhaustively check every other 3-subset of the 10 contents.
  for (std::uint32_t a = 0; a < 10; ++a) {
    for (std::uint32_t b = a + 1; b < 10; ++b) {
      for (std::uint32_t c = b + 1; c < 10; ++c) {
        const std::vector<std::uint32_t> set = {a, b, c};
        baselines::StaticSetCache other("set");
        ASSERT_TRUE(other.Reset(10, kCapacity, {}).ok());
        ASSERT_TRUE(other.Assign(set).ok());
        RequestReplayStats stats;
        ASSERT_TRUE(
            engine.ReplayInto(stream, other, nullptr, workspace, stats).ok());
        EXPECT_GE(best_stats.hits, stats.hits)
            << "static set {" << a << "," << b << "," << c << "}";
      }
    }
  }
}

// Records every boundary it sees; optionally fails selected epochs.
class RecordingHook final : public ReplanHook {
 public:
  common::Status OnEpochBoundary(
      std::size_t epoch, std::span<const std::uint64_t> epoch_counts,
      baselines::RequestCachePolicy& policy) override {
    (void)policy;
    epochs.push_back(epoch);
    counts.emplace_back(epoch_counts.begin(), epoch_counts.end());
    if (fail_all) {
      return common::Status::NumericalError("injected hook failure");
    }
    return common::Status::Ok();
  }

  std::vector<std::size_t> epochs;
  std::vector<std::vector<std::uint64_t>> counts;
  bool fail_all = false;
};

TEST(RequestEngineTest, ReplanHookSeesPerEpochCounts) {
  // Boundaries at t=2,4,6 split the literal stream into epochs
  // {0,0}, {1}, {0,1} and a trailing partial epoch.
  const RequestStream stream = LiteralStream(
      {0.5, 1.0, 2.5, 4.2, 5.0, 6.5}, {0, 0, 1, 0, 1, 1});
  RequestEngineOptions options = GoldenOptions(2, 1);
  options.epoch_period = 2.0;
  const RequestEngine engine(options);
  baselines::LruCache lru;
  ASSERT_TRUE(lru.Reset(2, 1, {}).ok());
  RecordingHook hook;
  RequestEngine::Workspace workspace;
  RequestReplayStats stats;
  ASSERT_TRUE(engine.ReplayInto(stream, lru, &hook, workspace, stats).ok());

  ASSERT_EQ(hook.epochs, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(hook.counts[0], (std::vector<std::uint64_t>{2, 0}));
  EXPECT_EQ(hook.counts[1], (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(hook.counts[2], (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(stats.replans, 3u);
  EXPECT_EQ(stats.replan_faults, 0u);
}

TEST(RequestEngineTest, HookFailureDegradesInsteadOfFailing) {
  const RequestStream stream = SeededStream(4, 1000, 15);
  RequestEngineOptions options = GoldenOptions(4, 2);
  options.epoch_period = 1.0;
  const RequestEngine engine(options);
  baselines::LruCache lru;
  ASSERT_TRUE(lru.Reset(4, 2, {}).ok());
  RecordingHook hook;
  hook.fail_all = true;
  RequestEngine::Workspace workspace;
  RequestReplayStats stats;
  ASSERT_TRUE(engine.ReplayInto(stream, lru, &hook, workspace, stats).ok())
      << "a failing hook must degrade, not fail the replay";
  EXPECT_GT(stats.replans, 0u);
  EXPECT_EQ(stats.replan_faults, stats.replans);
}

TEST(RequestEngineTest, NullHookDisablesReplanning) {
  const RequestStream stream = SeededStream(4, 1000, 15);
  RequestEngineOptions options = GoldenOptions(4, 2);
  options.epoch_period = 1.0;
  const RequestEngine engine(options);
  baselines::LruCache lru;
  ASSERT_TRUE(lru.Reset(4, 2, {}).ok());
  RequestEngine::Workspace workspace;
  RequestReplayStats stats;
  ASSERT_TRUE(engine.ReplayInto(stream, lru, nullptr, workspace, stats).ok());
  EXPECT_EQ(stats.replans, 0u);
}

#if MFGCP_FAULTS_ENABLED
TEST(RequestEngineTest, InjectedReplanFaultKeepsPreviousPlacement) {
  const RequestStream stream = SeededStream(4, 2000, 16);
  RequestEngineOptions options = GoldenOptions(4, 2);
  options.epoch_period = 5.0;
  const RequestEngine engine(options);
  baselines::LruCache lru;
  ASSERT_TRUE(lru.Reset(4, 2, {}).ok());
  RecordingHook hook;
  RequestEngine::Workspace workspace;
  RequestReplayStats baseline;
  ASSERT_TRUE(
      engine.ReplayInto(stream, lru, &hook, workspace, baseline).ok());
  ASSERT_GT(baseline.replans, 1u);

  // Fault epoch 1's replan: the hook must not run for that boundary.
  core::faults::FaultPlan plan;
  core::faults::FaultSpec spec;
  spec.site = core::faults::FaultSite::kReplan;
  spec.epoch = 1;
  spec.content = 0;
  plan.Add(spec);
  core::faults::ScopedFaultInjection arm(plan);

  hook.epochs.clear();
  hook.counts.clear();
  RequestReplayStats faulted;
  ASSERT_TRUE(
      engine.ReplayInto(stream, lru, &hook, workspace, faulted).ok());
  EXPECT_EQ(faulted.replans, baseline.replans);
  EXPECT_EQ(faulted.replan_faults, 1u);
  EXPECT_EQ(hook.epochs.size(), baseline.replans - 1)
      << "the faulted boundary must skip the hook";
  for (std::size_t epoch : hook.epochs) {
    EXPECT_NE(epoch, 1u);
  }
}
#endif  // MFGCP_FAULTS_ENABLED

TEST(RequestEngineTest, RejectsEmptyStreamAndBadIds) {
  const RequestEngine engine(GoldenOptions(2, 1));
  baselines::LruCache lru;
  ASSERT_TRUE(lru.Reset(2, 1, {}).ok());
  RequestEngine::Workspace workspace;
  RequestReplayStats stats;

  RequestStream empty;
  EXPECT_FALSE(
      engine.ReplayInto(empty, lru, nullptr, workspace, stats).ok());

  const RequestStream out_of_range = LiteralStream({1.0}, {5});
  EXPECT_FALSE(
      engine.ReplayInto(out_of_range, lru, nullptr, workspace, stats).ok());
}

}  // namespace
}  // namespace mfg::sim
