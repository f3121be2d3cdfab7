#ifndef MFGCP_CORE_PLAN_PUBLICATION_H_
#define MFGCP_CORE_PLAN_PUBLICATION_H_

#include <cstddef>
#include <vector>

#include "core/mfg_cp.h"

// Plan publication: the read-only aggregates a finished EpochPlanBuffer
// hands to whoever *serves* it — the gauntlet's replan hook
// (sim/gauntlet.h) re-placing a StaticSetCache mid-replay, and the online
// serving runtime (serve/serve_loop.h) double-buffering plans between its
// planner thread and its serve loop.
//
// Centralizing the placement-score arithmetic here is what makes the
// serving determinism contract hold *by construction*: "ServeLoop at
// timescale ∞ is bit-identical to the batch gauntlet replay" reduces to
// both paths calling the same functions in the same order on the same
// plan buffer. Do not fork this arithmetic — if a consumer needs a
// different ranking, add a new function and a new test.
//
// Everything here is allocation-free once the output vectors have been
// sized for the catalog (the usual *Into convention of ROADMAP.md).

namespace mfg::core {

// Weight of the popularity-only score given to contents the plan left
// inactive (outside K'): leftover capacity still fills deterministically
// by popularity rank, but any planned content with a nonzero caching
// rate outranks an unplanned one of equal popularity.
inline constexpr double kInactiveScoreWeight = 0.05;

// Mean of the equilibrium control surface x*(t, q) over all (t, q)
// cells, accumulated in row-major order. The summation order is part of
// the bit-identity contract — keep it exactly as written. The learner
// stores each lane's rate at exit (Equilibrium::mean_caching_rate),
// summing several lanes side by side, each chain in this same order, so
// the stored rates the publication functions below read are bit-equal to
// this serial reference.
double MeanCachingRate(const numerics::TimeField2D& control);

// Time-mean of the equilibrium price trajectory p*(t) (the mean-field
// price the estimator produced per time node); 0 for an empty
// trajectory.
double MeanEquilibriumPrice(const Equilibrium& equilibrium);

// Placement scores over the whole catalog: score[k] = popularity[k] ·
// (w + (1 − w) · mean caching rate) for active contents and
// w · popularity[k] for inactive ones, with w = kInactiveScoreWeight.
// Feed the result to StaticSetCache::AssignTopByScore. `score` is
// resized to the catalog (allocation-free once warmed). Reads each active
// slot's stored Equilibrium::mean_caching_rate; only a slot without one
// has its policy walked.
void ComputePlacementScores(const EpochPlanBuffer& buffer,
                            std::vector<double>& score);

// One published epoch plan: the immutable snapshot the serving thread
// reads while the planner overwrites the live EpochPlanBuffer with the
// next epoch. Flat per-content arrays only — no equilibria, no statuses
// — so a snapshot is a handful of memcpy-like assigns.
struct PublishedPlan {
  // Monotone publication sequence number (assigned by the publisher).
  std::size_t seq = 0;
  // Engine epoch (boundary index) whose observation produced this plan.
  std::size_t epoch = 0;
  std::size_t num_active = 0;
  std::vector<double> score;       // Placement scores (ComputePlacementScores).
  std::vector<double> popularity;  // Updated Π_k (Eq. 3).
  std::vector<double> mean_rate;   // Mean caching rate per content; 0 inactive.
  std::vector<double> mean_price;  // Time-mean equilibrium price; 0 inactive.
  // Mean over active slots of their time-mean price (0 when no slot is
  // active) — the scalar the price interpolator and serve.* gauges track.
  double mean_price_overall = 0.0;
};

// Snapshots `buffer` into `plan` (scores, popularity, per-content
// rate/price aggregates). Scores and mean rates come from the slots'
// stored rates, as in ComputePlacementScores. Does not touch plan.seq/plan.epoch — the
// publisher owns those. Allocation-free once `plan` is sized for the
// catalog.
void SnapshotPublishedPlan(const EpochPlanBuffer& buffer,
                           PublishedPlan& plan);

}  // namespace mfg::core

#endif  // MFGCP_CORE_PLAN_PUBLICATION_H_
