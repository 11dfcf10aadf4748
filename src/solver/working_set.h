// Working-set selection for the batched SMO solver (Section 3.3.1), and the
// pieces every SMO solver shares: the optimality check, the two-variable
// step and the solution finish.
//
// Each refresh keeps ws_size - q members of the previous working set and adds
// the q most-violating eligible instances: the top q/2 by ascending
// optimality indicator f whose y_i*alpha_i can be increased (the I_up side)
// and the bottom q/2 whose y_i*alpha_i can be decreased (the I_low side).
// The paper found that replacing only half of the working set (q = ws/2)
// converges fastest; both ws_size and q are configurable to reproduce the
// Figure 6/7 sensitivity sweeps.

#ifndef GMPSVM_SOLVER_WORKING_SET_H_
#define GMPSVM_SOLVER_WORKING_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "solver/svm_problem.h"

namespace gmpsvm {

// Eligibility sets from Section 2.1.1. I_up = I_1 u I_2 u I_3 (y_i*alpha_i
// can increase), I_low = I_1 u I_4 u I_5 (can decrease). `c` is the
// instance's own box constraint (per-class weighted C).
inline bool InUpSet(int8_t y, double alpha, double c) {
  return (y > 0 && alpha < c) || (y < 0 && alpha > 0);
}
inline bool InLowSet(int8_t y, double alpha, double c) {
  return (y > 0 && alpha > 0) || (y < 0 && alpha < c);
}

// The extremes of the optimality check (Constraint (9)) over all instances:
// the smallest f in I_up and the largest f in I_low (+inf / -inf when the
// set is empty). The solution is optimal once f_low_max - f_up_min < eps.
struct ViolationExtremes {
  double f_up_min;
  double f_low_max;
};
ViolationExtremes FindViolationExtremes(std::span<const double> f,
                                        std::span<const double> alpha,
                                        std::span<const int8_t> y,
                                        std::span<const double> c);

// Curvature floor of a two-variable step (LibSVM's TAU): a non-positive
// K_uu + K_ll - 2 K_ul is replaced by it.
inline constexpr double kSmoTau = 1e-12;

// Alpha deltas of one two-variable SMO step.
struct SmoPairDelta {
  double d_alpha_u = 0.0;
  double d_alpha_l = 0.0;
};

// One LibSVM-style two-variable step for the pair (u, l): moves alpha[u] and
// alpha[l] along the constrained Newton direction and clips them to their
// boxes [0, c_u] and [0, c_l] (LibSVM's unequal-C form). Reads the gradients
// y_i f_i; leaves f for the caller to update.
SmoPairDelta SmoUpdatePair(int32_t u, int32_t l, std::span<const int8_t> y,
                           double c_u, double c_l, double k_uu, double k_ll,
                           double k_ul, std::span<const double> f,
                           std::span<double> alpha);

// Packages a solver's final state: the bias of Equation (11), b = -rho,
// where rho is the mean f over free support vectors or, when none is free,
// the midpoint of the violation interval; and the dual objective of the
// maximization form of problem (2).
BinarySolution FinishSolution(std::vector<double> alpha, std::vector<double> f,
                              std::span<const int8_t> y,
                              std::span<const double> c);

struct WorkingSetConfig {
  // Working set size == GPU buffer rows (the paper's bs; default 1024).
  int ws_size = 1024;

  // New violating instances admitted per refresh (the paper's q; default
  // bs/2 per the Figure 7 finding).
  int q = 512;

  // Which members leave when the set is full. kOldest matches the FIFO
  // buffer replacement; kLeastViolating is the ablation alternative.
  enum class DropPolicy { kOldest, kLeastViolating };
  DropPolicy drop_policy = DropPolicy::kOldest;
};

// Admission order: each side admits its eligible non-members in the total
// order (f, index) — ascending for I_up, the exact reverse for I_low — so the
// selection is a pure function of the solver state, whatever the partition
// the candidates were collected over.
class WorkingSetSelector {
 public:
  // `n` is the binary problem size; sizes are clamped to it.
  WorkingSetSelector(const WorkingSetConfig& config, int64_t n);

  // Refreshes the working set from the current solver state. The first call
  // fills the whole set. Returns the new working set, oldest member first.
  const std::vector<int32_t>& Update(std::span<const double> f,
                                     std::span<const double> alpha,
                                     std::span<const int8_t> y,
                                     std::span<const double> c);

  const std::vector<int32_t>& working_set() const { return members_; }

  // --- Distributed refresh ---------------------------------------------------
  //
  // Update() is this protocol over one shard covering [0, n). A solve on a
  // shard group (batch_smo_solver.h) runs it without any shard looking at
  // instances outside its contiguous range:
  //   1. BeginDistributedRefresh() drops the stale members (bookkeeping only
  //      under kOldest) and returns how many new violators the merge needs;
  //   2. each shard calls CollectShardCandidates() over its own range and
  //      gets back its top `needed` eligible non-members per side, in the
  //      admission order;
  //   3. FinishDistributedRefresh() merges the shard lists in that order and
  //      admits up to `needed` of them.
  // Any instance a scan over all n admits ranks within the top `needed`
  // eligible candidates of its own shard on the relevant side, so the merged
  // selection is the same for every shard partition (working_set_test checks
  // it against a full-sort reference). Requires DropPolicy::kOldest:
  // kLeastViolating scores members against extremes over all n.

  // Per-shard candidate lists for one distributed refresh.
  struct ShardCandidates {
    std::vector<int32_t> up;   // eligible non-members, ascending (f, index)
    std::vector<int32_t> low;  // eligible non-members, descending (f, index)
  };

  // Drops this refresh's stale members and returns the number of new
  // violators to admit (ws_size on the first call). kOldest only.
  int BeginDistributedRefresh();

  // Collects the shard [begin, end)'s top `needed` eligible non-member
  // candidates per side. Pure: does not change the selector.
  ShardCandidates CollectShardCandidates(int64_t begin, int64_t end, int needed,
                                         std::span<const double> f,
                                         std::span<const double> alpha,
                                         std::span<const int8_t> y,
                                         std::span<const double> c) const;

  // Merges the shard candidate lists and admits the new members. Returns the
  // new working set.
  const std::vector<int32_t>& FinishDistributedRefresh(
      std::span<const ShardCandidates> shards, std::span<const double> f);

  // Effective (clamped) configuration.
  int ws_size() const { return ws_size_; }
  int q() const { return q_; }

 private:
  // Drops up to q stale members (none on the first call) and returns how
  // many new violators the refresh admits. kOldest ignores the state spans.
  int DropStale(std::span<const double> f, std::span<const double> alpha,
                std::span<const int8_t> y, std::span<const double> c);

  WorkingSetConfig::DropPolicy drop_policy_;
  int ws_size_;
  int q_;
  int64_t n_;
  std::vector<int32_t> members_;  // admission order: oldest first
  std::vector<uint8_t> is_member_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SOLVER_WORKING_SET_H_
