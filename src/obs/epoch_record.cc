#include "obs/epoch_record.h"

#include <cmath>
#include <cstdio>

namespace mfg::obs {
namespace {

std::string FormatValue(std::uint64_t value) { return std::to_string(value); }

std::string FormatValue(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void AppendEpochRecordJson(std::string& out, const EpochRecord& record) {
  const char* separator = "";
// JSON has no literal for NaN or infinity; counts are always finite.
#define MFG_EPOCH_RECORD_JSON(type, name)                          \
  out += separator;                                                \
  out += "\"" #name "\":";                                         \
  out += std::isfinite(static_cast<double>(record.name))           \
             ? FormatValue(record.name)                            \
             : "null";                                             \
  separator = ",";
  MFG_EPOCH_RECORD_FIELDS(MFG_EPOCH_RECORD_JSON)
#undef MFG_EPOCH_RECORD_JSON
}

void AppendEpochPlannerCsvHeader(std::vector<std::string>& header) {
#define MFG_EPOCH_PLANNER_CSV_NAME(type, name) header.emplace_back(#name);
  MFG_EPOCH_PLANNER_FIELDS(MFG_EPOCH_PLANNER_CSV_NAME)
#undef MFG_EPOCH_PLANNER_CSV_NAME
}

void AppendEpochPlannerCsvRow(const EpochRecord& record,
                              std::vector<std::string>& row) {
#define MFG_EPOCH_PLANNER_CSV_VALUE(type, name) \
  row.push_back(FormatValue(record.name));
  MFG_EPOCH_PLANNER_FIELDS(MFG_EPOCH_PLANNER_CSV_VALUE)
#undef MFG_EPOCH_PLANNER_CSV_VALUE
}

}  // namespace mfg::obs
