#include "solver/working_set.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace gmpsvm {
namespace {

// The admission orders (working_set.h) on (f, index). Ties break on the
// index, so both are total orders and the low order is the exact reverse of
// the up order.
inline bool UpBefore(double fa, int32_t a, double fb, int32_t b) {
  return fa != fb ? fa < fb : a < b;
}

// An eligible non-member with its f beside it, so selection compares
// contiguous keys instead of gathering f.
struct Candidate {
  double f;
  int32_t index;
};

// The indices of the first `needed` candidates in the up order (`low`
// false) or the low order, sorted. Both orders are total, so the kept
// prefix is unique.
std::vector<int32_t> FirstInOrder(std::vector<Candidate>* list, int needed,
                                  bool low) {
  const auto before = [low](const Candidate& a, const Candidate& b) {
    return low ? UpBefore(b.f, b.index, a.f, a.index)
               : UpBefore(a.f, a.index, b.f, b.index);
  };
  if (static_cast<int>(list->size()) > needed) {
    std::nth_element(list->begin(), list->begin() + needed, list->end(), before);
    list->resize(static_cast<size_t>(needed));
  }
  std::sort(list->begin(), list->end(), before);
  std::vector<int32_t> out;
  out.reserve(list->size());
  for (const Candidate& cand : *list) out.push_back(cand.index);
  return out;
}

}  // namespace

ViolationExtremes FindViolationExtremes(std::span<const double> f,
                                        std::span<const double> alpha,
                                        std::span<const int8_t> y,
                                        std::span<const double> c) {
  ViolationExtremes ext{std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i < f.size(); ++i) {
    if (InUpSet(y[i], alpha[i], c[i])) ext.f_up_min = std::min(ext.f_up_min, f[i]);
    if (InLowSet(y[i], alpha[i], c[i])) ext.f_low_max = std::max(ext.f_low_max, f[i]);
  }
  return ext;
}

SmoPairDelta SmoUpdatePair(int32_t u, int32_t l, std::span<const int8_t> y,
                           double c_u, double c_l, double k_uu, double k_ll,
                           double k_ul, std::span<const double> f,
                           std::span<double> alpha) {
  const double old_au = alpha[u];
  const double old_al = alpha[l];
  const double g_u = y[u] * f[u];
  const double g_l = y[l] * f[l];
  double& a_u = alpha[u];
  double& a_l = alpha[l];
  double quad = k_uu + k_ll - 2.0 * k_ul;
  if (quad <= 0) quad = kSmoTau;
  if (y[u] != y[l]) {
    const double delta = (-g_u - g_l) / quad;
    const double diff = a_u - a_l;
    a_u += delta;
    a_l += delta;
    if (diff > 0) {
      if (a_l < 0) {
        a_l = 0;
        a_u = diff;
      }
    } else {
      if (a_u < 0) {
        a_u = 0;
        a_l = -diff;
      }
    }
    if (diff > c_u - c_l) {
      if (a_u > c_u) {
        a_u = c_u;
        a_l = c_u - diff;
      }
    } else {
      if (a_l > c_l) {
        a_l = c_l;
        a_u = c_l + diff;
      }
    }
  } else {
    const double delta = (g_u - g_l) / quad;
    const double sum = a_u + a_l;
    a_u -= delta;
    a_l += delta;
    if (sum > c_u) {
      if (a_u > c_u) {
        a_u = c_u;
        a_l = sum - c_u;
      }
    } else {
      if (a_l < 0) {
        a_l = 0;
        a_u = sum;
      }
    }
    if (sum > c_l) {
      if (a_l > c_l) {
        a_l = c_l;
        a_u = sum - c_l;
      }
    } else {
      if (a_u < 0) {
        a_u = 0;
        a_l = sum;
      }
    }
  }
  return SmoPairDelta{a_u - old_au, a_l - old_al};
}

BinarySolution FinishSolution(std::vector<double> alpha, std::vector<double> f,
                              std::span<const int8_t> y,
                              std::span<const double> c) {
  double sum_free = 0.0;
  int64_t num_free = 0;
  for (size_t i = 0; i < f.size(); ++i) {
    if (alpha[i] > 0 && alpha[i] < c[i]) {
      sum_free += f[i];
      ++num_free;
    }
  }
  double rho;
  if (num_free > 0) {
    rho = sum_free / static_cast<double>(num_free);
  } else {
    const ViolationExtremes ext = FindViolationExtremes(f, alpha, y, c);
    rho = (ext.f_up_min + ext.f_low_max) / 2.0;
  }

  // sum(alpha) - 0.5*alpha'Q alpha = -0.5 * sum_i alpha_i * (y_i f_i - 1).
  double objective = 0.0;
  for (size_t i = 0; i < f.size(); ++i) objective += alpha[i] * (y[i] * f[i] - 1.0);
  objective *= -0.5;

  BinarySolution solution;
  solution.alpha = std::move(alpha);
  solution.bias = -rho;
  solution.objective = objective;
  solution.f = std::move(f);
  return solution;
}

WorkingSetSelector::WorkingSetSelector(const WorkingSetConfig& config, int64_t n)
    : drop_policy_(config.drop_policy), n_(n), is_member_(static_cast<size_t>(n), 0) {
  ws_size_ = static_cast<int>(std::min<int64_t>(std::max(2, config.ws_size), n));
  q_ = std::clamp(config.q, 2, ws_size_);
}

const std::vector<int32_t>& WorkingSetSelector::Update(std::span<const double> f,
                                                       std::span<const double> alpha,
                                                       std::span<const int8_t> y,
                                                       std::span<const double> c) {
  const int needed = DropStale(f, alpha, y, c);
  const ShardCandidates all = CollectShardCandidates(0, n_, needed, f, alpha, y, c);
  return FinishDistributedRefresh({&all, 1}, f);
}

int WorkingSetSelector::BeginDistributedRefresh() {
  GMP_DCHECK(drop_policy_ == WorkingSetConfig::DropPolicy::kOldest);
  return DropStale({}, {}, {}, {});
}

int WorkingSetSelector::DropStale(std::span<const double> f,
                                  std::span<const double> alpha,
                                  std::span<const int8_t> y,
                                  std::span<const double> c) {
  const int count = std::min<int>(q_, static_cast<int>(members_.size()));
  if (count > 0 && drop_policy_ == WorkingSetConfig::DropPolicy::kOldest) {
    // members_ is in admission order, so the oldest are its prefix.
    for (int k = 0; k < count; ++k) is_member_[static_cast<size_t>(members_[k])] = 0;
    members_.erase(members_.begin(), members_.begin() + count);
  } else if (count > 0) {
    // Violation score: how far the member sticks out past the opposite
    // extreme; non-violating members score lowest and leave first.
    const ViolationExtremes ext = FindViolationExtremes(f, alpha, y, c);
    std::vector<std::pair<double, int32_t>> scored;
    scored.reserve(members_.size());
    for (int32_t m : members_) {
      double score = -std::numeric_limits<double>::infinity();
      if (InUpSet(y[m], alpha[m], c[m])) score = std::max(score, ext.f_low_max - f[m]);
      if (InLowSet(y[m], alpha[m], c[m])) score = std::max(score, f[m] - ext.f_up_min);
      scored.emplace_back(score, m);
    }
    std::nth_element(scored.begin(), scored.begin() + count - 1, scored.end());
    for (int k = 0; k < count; ++k) {
      is_member_[static_cast<size_t>(scored[static_cast<size_t>(k)].second)] = 0;
    }
    std::erase_if(members_, [this](int32_t m) {
      return is_member_[static_cast<size_t>(m)] == 0;
    });
  }
  return ws_size_ - static_cast<int>(members_.size());
}

WorkingSetSelector::ShardCandidates WorkingSetSelector::CollectShardCandidates(
    int64_t begin, int64_t end, int needed, std::span<const double> f,
    std::span<const double> alpha, std::span<const int8_t> y,
    std::span<const double> c) const {
  if (needed <= 0) return {};
  std::vector<Candidate> up;
  std::vector<Candidate> low;
  up.reserve(static_cast<size_t>(end - begin));
  low.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    if (is_member_[static_cast<size_t>(i)] != 0) continue;
    const Candidate cand{f[i], static_cast<int32_t>(i)};
    if (InUpSet(y[i], alpha[i], c[i])) up.push_back(cand);
    if (InLowSet(y[i], alpha[i], c[i])) low.push_back(cand);
  }
  return ShardCandidates{FirstInOrder(&up, needed, /*low=*/false),
                         FirstInOrder(&low, needed, /*low=*/true)};
}

const std::vector<int32_t>& WorkingSetSelector::FinishDistributedRefresh(
    std::span<const ShardCandidates> shards, std::span<const double> f) {
  const int count = ws_size_ - static_cast<int>(members_.size());
  if (count <= 0) return members_;

  // Merge the shard lists into one sequence per side. Shard ranges are
  // disjoint and the orders total, so each merged sequence is the admission
  // order over every eligible non-member, cut wherever no admission can
  // reach.
  std::vector<int32_t> up;
  std::vector<int32_t> low;
  for (const ShardCandidates& shard : shards) {
    up.insert(up.end(), shard.up.begin(), shard.up.end());
    low.insert(low.end(), shard.low.begin(), shard.low.end());
  }
  if (shards.size() > 1) {
    std::sort(up.begin(), up.end(),
              [f](int32_t a, int32_t b) { return UpBefore(f[a], a, f[b], b); });
    std::sort(low.begin(), low.end(),
              [f](int32_t a, int32_t b) { return UpBefore(f[b], b, f[a], a); });
  }

  // Admits the first `limit` candidates of `list` that are not members yet
  // (a free instance is a candidate on both sides).
  int added = 0;
  const auto admit = [&](const std::vector<int32_t>& list, int limit) {
    int taken = 0;
    for (size_t k = 0; k < list.size() && taken < limit; ++k) {
      const int32_t i = list[k];
      if (is_member_[static_cast<size_t>(i)] != 0) continue;
      members_.push_back(i);
      is_member_[static_cast<size_t>(i)] = 1;
      ++taken;
    }
    added += taken;
    return taken;
  };
  // Up side: smallest f whose y*alpha can increase. Low side: largest f
  // whose y*alpha can decrease, filling any up-side deficit. If the low side
  // ran dry, top up from the up side.
  const int up_added = admit(up, count / 2);
  admit(low, count - up_added);
  admit(up, count - added);
  return members_;
}

}  // namespace gmpsvm
