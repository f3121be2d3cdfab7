#include "obs/flight_dump.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "epoch_test_util.h"
#include "core/fault_injection.h"
#include "core/mfg_cp.h"
#include "obs/flight_recorder.h"

// Flight-recorder determinism goldens and the JSONL post-mortem writer:
// the per-content event sequences must be bit-identical at any parallelism
// and any batch width (the journal-level counterpart of the plan-buffer
// goldens in epoch_degradation_test), degraded epochs must produce a dump
// whose path the health report carries, and the (epoch, content) ledger
// plus the max_dumps cap must rate-limit repeat dumps.

namespace mfg::core {
namespace {

#if !MFGCP_FAULTS_ENABLED || !MFGCP_OBS_ENABLED

TEST(FlightDumpTest, RequiresFaultsAndObservability) {
  GTEST_SKIP() << "flight-dump tests need MFGCP_FAULTS=ON and the "
                  "observability layer compiled in";
}

#else  // MFGCP_FAULTS_ENABLED && MFGCP_OBS_ENABLED

// Schedule-independent view of one event: everything except the global
// seq (which encodes interleaving across contents) and the epoch/content
// key (held fixed by the caller).
struct CanonicalEvent {
  obs::FlightEventType type;
  std::uint8_t detail;
  std::uint16_t attempt;
  std::uint32_t iter;
  std::uint64_t v0_bits;
  std::uint64_t v1_bits;
  bool operator==(const CanonicalEvent& other) const = default;
};

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Plans `epochs` epochs under `plan` and returns the canonical per-
// (epoch, content) event sequences, journal reset first so runs compare
// cleanly.
std::vector<std::vector<CanonicalEvent>> RunAndCollect(
    std::size_t parallelism, std::size_t batch_width, std::size_t epochs,
    std::size_t contents, const faults::FaultPlan& plan) {
  obs::FlightJournal::Get().SetEnabled(true);
  obs::FlightJournal::Get().ResetForTesting(16384);
  MfgCpOptions options = testing::FastOptions(parallelism);
  options.batch_width = batch_width;
  MfgCpFramework framework =
      testing::MakeFramework(contents, parallelism, &options);
  const EpochObservation obs = testing::MakeObservation(contents);
  EpochPlanBuffer buffer;
  faults::ScopedFaultInjection injection(plan);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const common::Status status = framework.PlanEpochInto(obs, buffer);
    EXPECT_TRUE(status.ok()) << status;
  }
  std::vector<std::vector<CanonicalEvent>> collected;
  std::vector<obs::FlightEvent> events;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    for (std::size_t k = 0; k < contents; ++k) {
      events.clear();
      obs::FlightJournal::Get().CollectInto(epoch, k, events);
      std::vector<CanonicalEvent> canonical;
      canonical.reserve(events.size());
      for (const obs::FlightEvent& e : events) {
        canonical.push_back({e.type, e.detail, e.attempt, e.iter,
                             Bits(e.v0), Bits(e.v1)});
      }
      collected.push_back(std::move(canonical));
    }
  }
  obs::FlightJournal::Get().ResetForTesting();
  return collected;
}

faults::FaultPlan SeededSolverFaults(std::uint64_t seed, std::size_t epochs,
                                     std::size_t contents) {
  faults::FaultPlan::SeedOptions options;
  options.seed = seed;
  options.num_epochs = epochs;
  options.num_contents = contents;
  options.fault_rate = 0.5;
  // Solver-stage sites only, so every injected failure is recoverable and
  // the epochs stay Ok through the ladder.
  options.sites = {faults::FaultSite::kSolve, faults::FaultSite::kHjbStep,
                   faults::FaultSite::kFpkStep,
                   faults::FaultSite::kNonConvergence};
  return faults::FaultPlan::FromSeed(options);
}

TEST(FlightDumpDeterminismTest, EventSetsIdenticalAcrossParallelism) {
  constexpr std::size_t kEpochs = 2;
  constexpr std::size_t kContents = 5;
  const faults::FaultPlan plan = SeededSolverFaults(7, kEpochs, kContents);
  const auto golden = RunAndCollect(1, 8, kEpochs, kContents, plan);
  std::size_t total = 0;
  for (const auto& content_events : golden) total += content_events.size();
  ASSERT_GT(total, 0u);
  EXPECT_EQ(RunAndCollect(2, 8, kEpochs, kContents, plan), golden);
  EXPECT_EQ(RunAndCollect(8, 8, kEpochs, kContents, plan), golden);
}

TEST(FlightDumpDeterminismTest, EventSetsIdenticalAcrossBatchWidths) {
  constexpr std::size_t kEpochs = 2;
  constexpr std::size_t kContents = 5;
  const faults::FaultPlan plan = SeededSolverFaults(11, kEpochs, kContents);
  // Width 1 solves one content per block; the wider blocks must journal
  // the exact same per-content story, down to the payload bits.
  const auto scalar = RunAndCollect(2, 1, kEpochs, kContents, plan);
  std::size_t total = 0;
  for (const auto& content_events : scalar) total += content_events.size();
  ASSERT_GT(total, 0u);
  EXPECT_EQ(RunAndCollect(2, 3, kEpochs, kContents, plan), scalar);
  EXPECT_EQ(RunAndCollect(2, 8, kEpochs, kContents, plan), scalar);
}

class FlightDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetFlightDumpStateForTesting();
    obs::FlightJournal::Get().SetEnabled(true);
    obs::FlightJournal::Get().ResetForTesting(16384);
    dir_ = ::testing::TempDir() + "flight_dump_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    obs::ResetFlightDumpStateForTesting();
    obs::FlightJournal::Get().ResetForTesting();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(FlightDumpTest, DegradedEpochWritesDumpAndHealthCarriesPath) {
  obs::FlightDumpOptions dump_options;
  dump_options.directory = dir_;
  obs::SetFlightDumpOptions(dump_options);

  // Permanent solve fault on content 1 in epoch 0: no history yet, so the
  // ladder lands on the static fallback and the slot is degraded.
  faults::FaultPlan plan;
  faults::FaultSpec spec;
  spec.site = faults::FaultSite::kSolve;
  spec.epoch = 0;
  spec.content = 1;
  spec.fail_attempts = faults::FaultSpec::kAlways;
  plan.Add(spec);

  MfgCpFramework framework = testing::MakeFramework(3, 1);
  const EpochObservation obs = testing::MakeObservation(3);
  EpochPlanBuffer buffer;
  EpochHealthReport health;
  faults::ScopedFaultInjection injection(plan);
  const common::Status status =
      framework.PlanEpochInto(obs, buffer, &health);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_FALSE(health.flight_dump_path.empty());
  EXPECT_TRUE(std::filesystem::exists(health.flight_dump_path));
  EXPECT_THAT(FormatHealthLine(health),
              ::testing::HasSubstr("dump=" + health.flight_dump_path));

  std::ifstream in(health.flight_dump_path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_THAT(header, ::testing::HasSubstr("\"type\":\"flight_header\""));
  EXPECT_THAT(header, ::testing::HasSubstr("\"epoch\":0"));
  EXPECT_THAT(header, ::testing::HasSubstr("\"contents\":[1]"));

  std::string line;
  std::size_t event_lines = 0;
  bool saw_ladder = false;
  bool saw_fault = false;
  while (std::getline(in, line)) {
    ++event_lines;
    EXPECT_THAT(line, ::testing::HasSubstr("\"type\":\"event\""));
    EXPECT_THAT(line, ::testing::HasSubstr("\"content\":1"));
    EXPECT_THAT(line, ::testing::HasSubstr("\"span_id\":1"));
    if (line.find("\"event\":\"ladder\"") != std::string::npos) {
      saw_ladder = true;
    }
    if (line.find("\"event\":\"fault\"") != std::string::npos) {
      saw_fault = true;
    }
  }
  EXPECT_GT(event_lines, 0u);
  EXPECT_TRUE(saw_ladder);
  EXPECT_TRUE(saw_fault);
}

TEST_F(FlightDumpTest, HealthyEpochDumpsOnlyWithDumpAll) {
  obs::FlightDumpOptions dump_options;
  dump_options.directory = dir_;
  obs::SetFlightDumpOptions(dump_options);

  MfgCpFramework framework = testing::MakeFramework(2, 1);
  const EpochObservation obs = testing::MakeObservation(2);
  EpochPlanBuffer buffer;
  EpochHealthReport health;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer, &health).ok());
  EXPECT_TRUE(health.flight_dump_path.empty());

  // dump_healthy: the on-demand mode dumps every active content.
  dump_options.dump_healthy = true;
  obs::SetFlightDumpOptions(dump_options);
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer, &health).ok());
  ASSERT_FALSE(health.flight_dump_path.empty());
  std::ifstream in(health.flight_dump_path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_THAT(header, ::testing::HasSubstr("\"contents\":[0,1]"));
}

TEST_F(FlightDumpTest, RateLimitsRepeatPairsAndHonorsFileCap) {
  obs::FlightDumpOptions dump_options;
  dump_options.directory = dir_;
  dump_options.max_dumps = 2;
  obs::SetFlightDumpOptions(dump_options);

  obs::FlightJournal& journal = obs::FlightJournal::Get();
  const std::vector<std::size_t> contents = {1};
  journal.RecordAt(obs::FlightEventType::kLadder, 0, 0, 1, 0, 0, 0.0, 0.0);
  const std::string first = obs::WriteFlightDump(0, contents);
  ASSERT_FALSE(first.empty());
  // The same (epoch, content) pair is dumped at most once per process.
  EXPECT_EQ(obs::WriteFlightDump(0, contents), "");

  journal.RecordAt(obs::FlightEventType::kLadder, 0, 1, 1, 0, 0, 0.0, 0.0);
  const std::string second = obs::WriteFlightDump(1, contents);
  ASSERT_FALSE(second.empty());
  EXPECT_NE(second, first);

  // max_dumps exhausted: a third epoch writes nothing.
  journal.RecordAt(obs::FlightEventType::kLadder, 0, 2, 1, 0, 0, 0.0, 0.0);
  EXPECT_EQ(obs::WriteFlightDump(2, contents), "");
}

TEST_F(FlightDumpTest, KeepsOnlyTheLastEventsPerContent) {
  obs::FlightDumpOptions dump_options;
  dump_options.directory = dir_;
  dump_options.max_events_per_content = 4;
  obs::SetFlightDumpOptions(dump_options);

  obs::FlightJournal& journal = obs::FlightJournal::Get();
  for (std::uint32_t i = 0; i < 10; ++i) {
    journal.RecordAt(obs::FlightEventType::kIteration, 0, 0, 3, 0, i, 0.0,
                     0.0);
  }
  const std::vector<std::size_t> contents = {3};
  const std::string path = obs::WriteFlightDump(0, contents);
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // Header.
  std::vector<std::string> event_lines;
  while (std::getline(in, line)) event_lines.push_back(line);
  ASSERT_EQ(event_lines.size(), 4u);
  // The retained tail is iters 6..9.
  EXPECT_THAT(event_lines.front(), ::testing::HasSubstr("\"iter\":6"));
  EXPECT_THAT(event_lines.back(), ::testing::HasSubstr("\"iter\":9"));
}

TEST_F(FlightDumpTest, DisabledJournalSuppressesDumps) {
  obs::FlightDumpOptions dump_options;
  dump_options.directory = dir_;
  obs::SetFlightDumpOptions(dump_options);
  obs::FlightJournal::Get().RecordAt(obs::FlightEventType::kLadder, 0, 0, 1,
                                     0, 0, 0.0, 0.0);
  obs::FlightJournal::Get().SetEnabled(false);
  const std::vector<std::size_t> contents = {1};
  EXPECT_EQ(obs::WriteFlightDump(0, contents), "");
}

#endif  // MFGCP_FAULTS_ENABLED && MFGCP_OBS_ENABLED

}  // namespace
}  // namespace mfg::core
