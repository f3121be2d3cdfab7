#ifndef MFGCP_NUMERICS_RESIDUAL_MAX_H_
#define MFGCP_NUMERICS_RESIDUAL_MAX_H_

#include <span>

// The relaxed policy update and the two sup-norm residuals of the
// best-response loop (Alg. 2, line 6), as one pass over the flat fields.
//
// A residual max is a fold `acc = std::max(acc, |d_k|)`. Written as one
// running maximum it is a loop-carried chain the compiler may not
// reassociate (std::max is not associative in the presence of NaN), so it
// retires one compare-select per add latency. This kernel keeps K = 8
// independent running maxima — element k feeds chain k mod 8, held as four
// two-double vector registers — and folds them at the end. The result is
// bitwise the serial fold's, in any grouping:
//
//  * every operand is std::fabs(·), so it is ≥ +0.0 and never −0.0 — two
//    equal operands carry equal bits, and max over them is a plain set
//    maximum with no ±0 tie to break;
//  * std::max(acc, x) is `acc < x ? x : acc`, which keeps acc when x is
//    NaN, so no chain ever holds a NaN and NaN operands drop out of every
//    grouping alike;
//  * every chain starts at +0.0, the serial fold's initial value.
//
// The relaxed iterate p' = (1 − γ)·p + γ·h is the learners' expression
// verbatim (-ffp-contract=off keeps its two roundings), written to both
// `policy` and `best_response`: the learners expose the relaxed policy
// through the HJB output buffer instead of copying it there.

namespace mfg::numerics {

struct RelaxResiduals {
  double policy_change = 0.0;  // max_k |p'[k] − p[k]|.
  double value_change = 0.0;   // max_k |v[k] − v_prev[k]| (see below).
};

// Over k < policy.size(): writes p' into policy[k] and best_response[k]
// and returns both residual maxima. `best_response` and `value` must have
// policy.size() elements. When prev_value.size() != value.size() (the
// first iteration, before any previous surface exists) the value residual
// is measured against zero: max_k |v[k]|. Empty fields give 0.0.
RelaxResiduals RelaxAndMeasureResiduals(double gamma, std::span<double> policy,
                                        std::span<double> best_response,
                                        std::span<const double> value,
                                        std::span<const double> prev_value);

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_RESIDUAL_MAX_H_
