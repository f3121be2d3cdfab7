#ifndef MFGCP_OBS_EPOCH_RECORD_H_
#define MFGCP_OBS_EPOCH_RECORD_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

// The per-epoch plan record: one optimization epoch of Alg. 1 yields one
// plan, and this is its health record — ladder outcomes, plan wall time,
// the equilibrium probe's ε-Nash gap and price trajectory, and the
// serving runtime's publication context.
//
// Every scalar field is declared once, in the X-macro lists below; the
// struct and the JSON and CSV appenders are generated from them, so the
// /epochz ring (obs/exporter.h), the serve JSONL epoch rows
// (serve/serve_loop.h) and the epoch CSV (sim/epoch_runner.h, planner
// group only) spell every field the same way. core::EpochHealthReport
// derives from the record. Built with or without -DMFGCP_OBS, since the
// JSONL and the CSV are written either way. Plain data: copying a record
// never allocates.

// X(type, name). The planner group, filled by
// core::MfgCpFramework::PlanEpochInto.
#define MFG_EPOCH_PLANNER_FIELDS(X)                                         \
  X(std::uint64_t, active)     /* |K'| planned this epoch. */               \
  X(double, plan_seconds)      /* Wall time of PlanEpochInto. */            \
  /* Recovery-ladder outcome tallies; they sum to active. */               \
  X(std::uint64_t, solved)                                                  \
  X(std::uint64_t, retried)                                                 \
  X(std::uint64_t, carried_forward)                                         \
  X(std::uint64_t, fallback)                                                \
  X(std::uint64_t, failed)                                                  \
  /* core.best_response.* counter deltas spanning this epoch (0 when the    \
     telemetry layer is compiled out). */                                   \
  X(std::uint64_t, best_response_solves)                                    \
  X(std::uint64_t, best_response_converged)                                 \
  X(std::uint64_t, best_response_nonconverged)                              \
  /* Pool-worker heap allocations this epoch (0 at steady state, and 0      \
     unless the binary links mfgcp_obs_alloc_hooks). */                     \
  X(std::uint64_t, allocations)                                             \
  /* Equilibrium probe (MfgCpOptions::eq_probe); all 0 when it is off or    \
     every probed slot failed. Gap and residual are worst case over the     \
     probed slots; the price stats span every active slot's mean field. */ \
  X(std::uint64_t, eq_probed)                                               \
  X(double, eq_exploitability)        /* Max ε-Nash gap (Definition 3). */  \
  X(double, eq_exploitability_rel)    /* Max relative gap. */               \
  X(double, eq_consistency_residual)  /* Max FPK fixed-point L1 gap. */     \
  X(double, eq_price_min)                                                   \
  X(double, eq_price_mean)                                                  \
  X(double, eq_price_max)

// The serving group, filled by serve::ServeLoop when it collects and
// publishes the plan; 0 for plans that never went through it.
#define MFG_EPOCH_SERVING_FIELDS(X)                                         \
  X(std::uint64_t, seq)              /* Publication sequence, from 0. */    \
  /* Boundary index at publication: == epoch for an on-time synchronous     \
     round, later for a deferred one. */                                    \
  X(std::uint64_t, epoch_published)                                         \
  X(std::uint64_t, tick)             /* Serve tick count at publication. */ \
  X(double, sim_time)                /* Sim-clock time at publication. */   \
  /* 0 or 1: the plan missed its publication deadline (kPlanDeadline) and   \
     served the next boundary instead of its own. */                        \
  X(std::uint64_t, deadline_misses)                                         \
  X(double, mean_price)     /* PublishedPlan::mean_price_overall. */          \
  /* serve.tick_latency count and quantiles (seconds) at collection time;   \
     0 when the telemetry layer is compiled out. */                         \
  X(std::uint64_t, serve_ticks)                                             \
  X(double, tick_p50)                                                       \
  X(double, tick_p90)                                                       \
  X(double, tick_p99)

// Every field in declaration order. `epoch` heads the record: PlanEpochInto
// writes the plan buffer's epoch index (the one fault plans key on); the
// serving runtime re-stamps its rows with the boundary whose counts fed
// the plan.
#define MFG_EPOCH_RECORD_FIELDS(X) \
  X(std::uint64_t, epoch)          \
  MFG_EPOCH_PLANNER_FIELDS(X)      \
  MFG_EPOCH_SERVING_FIELDS(X)

namespace mfg::obs {

struct EpochRecord {
#define MFG_EPOCH_RECORD_MEMBER(type, name) type name = 0;
  MFG_EPOCH_RECORD_FIELDS(MFG_EPOCH_RECORD_MEMBER)
#undef MFG_EPOCH_RECORD_MEMBER
};
static_assert(std::is_trivially_copyable_v<EpochRecord>);

// Appends every field as a JSON member, `"name":value`, comma-separated
// and without braces, so a sink can wrap it with its own members. Counts
// print as integers, reals at %.17g, non-finite reals as null.
void AppendEpochRecordJson(std::string& out, const EpochRecord& record);

// The planner group as CSV columns: the field names, and one record's
// values (reals at %.17g).
void AppendEpochPlannerCsvHeader(std::vector<std::string>& header);
void AppendEpochPlannerCsvRow(const EpochRecord& record,
                              std::vector<std::string>& row);

}  // namespace mfg::obs

#endif  // MFGCP_OBS_EPOCH_RECORD_H_
