// Round trip of the one per-epoch record schema (obs/epoch_record.h)
// through every machine sink: with each field set to a distinct value,
// every field must appear exactly once, under its one name and with that
// value, in the /epochz JSON and a serve JSONL epoch row; the planner
// group must do the same in the epoch-runner CSV.

#include "obs/epoch_record.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/csv.h"
#include "obs/exporter.h"
#include "serve/serve_loop.h"
#include "sim/epoch_runner.h"

namespace mfg::obs {
namespace {

struct Field {
  std::string name;
  std::string value;  // As the sinks print it.
};

std::string Print(std::uint64_t value) { return std::to_string(value); }

std::string Print(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Field k of the declaration order holds k, plus a quarter for reals so
// they print with a fraction: every field's value is distinct, so a sink
// that swaps two fields fails.
EpochRecord DistinctRecord() {
  EpochRecord record;
  double next = 1.0;
#define MFG_TEST_DISTINCT(type, name)                                   \
  record.name = static_cast<type>(                                      \
      next + (std::is_floating_point_v<type> ? 0.25 : 0.0));            \
  next += 1.0;
  MFG_EPOCH_RECORD_FIELDS(MFG_TEST_DISTINCT)
#undef MFG_TEST_DISTINCT
  return record;
}

std::vector<Field> AllFields(const EpochRecord& record) {
  std::vector<Field> fields;
#define MFG_TEST_FIELD(type, name) \
  fields.push_back({#name, Print(record.name)});
  MFG_EPOCH_RECORD_FIELDS(MFG_TEST_FIELD)
  return fields;
}

std::vector<Field> PlannerFields(const EpochRecord& record) {
  std::vector<Field> fields;
  MFG_EPOCH_PLANNER_FIELDS(MFG_TEST_FIELD)
#undef MFG_TEST_FIELD
  return fields;
}

// `object` is one JSON object's text: every field appears once, as
// "name":value, and nothing else but `extra_keys` does.
void ExpectJsonCarriesEveryField(const std::string& object,
                                 const EpochRecord& record,
                                 std::size_t extra_keys) {
  const std::vector<Field> fields = AllFields(record);
  for (const Field& field : fields) {
    const std::string key = "\"" + field.name + "\":";
    const std::size_t at = object.find(key);
    ASSERT_NE(at, std::string::npos) << field.name << " missing: " << object;
    EXPECT_EQ(object.find(key, at + 1), std::string::npos)
        << field.name << " appears twice";
    const std::size_t begin = at + key.size();
    const std::size_t end = object.find_first_of(",}", begin);
    EXPECT_EQ(object.substr(begin, end - begin), field.value) << field.name;
  }
  std::size_t keys = 0;
  for (std::size_t at = object.find("\":"); at != std::string::npos;
       at = object.find("\":", at + 1)) {
    ++keys;
  }
  EXPECT_EQ(keys, fields.size() + extra_keys) << object;
}

TEST(EpochRecordSinksTest, JsonAppenderWritesNonFiniteRealsAsNull) {
  EpochRecord record;
  record.tick_p99 = std::numeric_limits<double>::infinity();
  record.eq_exploitability = std::numeric_limits<double>::quiet_NaN();
  std::string json;
  AppendEpochRecordJson(json, record);
  EXPECT_NE(json.find("\"tick_p99\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"eq_exploitability\":null"), std::string::npos);
}

#if MFGCP_OBS_ENABLED
TEST(EpochRecordSinksTest, EpochzCarriesEveryField) {
  const EpochRecord record = DistinctRecord();
  const std::string json = AdminExporter::RenderEpochJson({record}, 1);
  const std::string head = "{\"capacity\":1,\"count\":1,\"reports\":[";
  ASSERT_EQ(json.rfind(head, 0), 0u) << json;
  const std::size_t end = json.find('}', head.size());
  ExpectJsonCarriesEveryField(json.substr(head.size(), end + 1 - head.size()),
                              record, 0);
}
#endif  // MFGCP_OBS_ENABLED

TEST(EpochRecordSinksTest, ServeJsonlEpochRowCarriesEveryField) {
  const EpochRecord record = DistinctRecord();
  serve::ServeStats stats;
  stats.rows.push_back(record);
  stats.publications = 1;
  serve::ServeOptions options;
  options.jsonl_path = ::testing::TempDir() + "/mfgcp_epoch_record.jsonl";
  ASSERT_TRUE(serve::WriteServeJsonl(stats, options).ok());

  std::ifstream in(options.jsonl_path);
  std::string row;
  ASSERT_TRUE(std::getline(in, row));
  const std::string head = "{\"type\":\"epoch\",";
  ASSERT_EQ(row.rfind(head, 0), 0u) << row;
  ExpectJsonCarriesEveryField(row, record, 1);
  std::remove(options.jsonl_path.c_str());
}

TEST(EpochRecordSinksTest, EpochCsvCarriesThePlannerGroup) {
  sim::EpochOutcome outcome;
  outcome.epoch = 1000;
  static_cast<EpochRecord&>(outcome.health) = DistinctRecord();
  auto table = common::CsvTable::Parse(sim::EpochOutcomesCsv({outcome}));
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->Cell(0, table->ColumnIndex("epoch").value()).value(),
            "1000");
  const std::vector<Field> fields = PlannerFields(outcome.health);
  for (const Field& field : fields) {
    auto column = table->ColumnIndex(field.name);
    ASSERT_TRUE(column.ok()) << field.name;
    EXPECT_EQ(table->Cell(0, *column).value(), field.value) << field.name;
  }
  const std::set<std::string> header(table->header().begin(),
                                     table->header().end());
  EXPECT_EQ(header.size(), table->header().size()) << "duplicate column";
  // The runner's epoch, the planner group, then three outcome columns.
  EXPECT_EQ(table->num_cols(), 1 + fields.size() + 3);
}

}  // namespace
}  // namespace mfg::obs
