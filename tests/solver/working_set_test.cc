#include "solver/working_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

namespace gmpsvm {
namespace {

TEST(EligibilitySetsTest, MatchPaperDefinitions) {
  const double c = 1.0;
  // I_1: free SVs are in both sets.
  EXPECT_TRUE(InUpSet(+1, 0.5, c));
  EXPECT_TRUE(InLowSet(+1, 0.5, c));
  EXPECT_TRUE(InUpSet(-1, 0.5, c));
  EXPECT_TRUE(InLowSet(-1, 0.5, c));
  // I_2: y=+1, alpha=0 -> up only.
  EXPECT_TRUE(InUpSet(+1, 0.0, c));
  EXPECT_FALSE(InLowSet(+1, 0.0, c));
  // I_3: y=-1, alpha=C -> up only.
  EXPECT_TRUE(InUpSet(-1, c, c));
  EXPECT_FALSE(InLowSet(-1, c, c));
  // I_4: y=+1, alpha=C -> low only.
  EXPECT_FALSE(InUpSet(+1, c, c));
  EXPECT_TRUE(InLowSet(+1, c, c));
  // I_5: y=-1, alpha=0 -> low only.
  EXPECT_FALSE(InUpSet(-1, 0.0, c));
  EXPECT_TRUE(InLowSet(-1, 0.0, c));
}

struct State {
  std::vector<double> f;
  std::vector<double> alpha;
  std::vector<int8_t> y;
  std::vector<double> c;  // per-instance box constraint

  void FinishC(double value = 1.0) { c.assign(y.size(), value); }
};

// All-zero-alpha state (start of training): every +1 is up-eligible with
// f=-1; every -1 is low-eligible with f=+1.
State FreshState(int n) {
  State s;
  for (int i = 0; i < n; ++i) {
    const int8_t label = (i % 2 == 0) ? int8_t{1} : int8_t{-1};
    s.y.push_back(label);
    s.alpha.push_back(0.0);
    s.f.push_back(-static_cast<double>(label));
  }
  s.FinishC();
  return s;
}

TEST(WorkingSetSelectorTest, FirstCallFillsWholeSet) {
  WorkingSetConfig cfg;
  cfg.ws_size = 8;
  cfg.q = 4;
  State s = FreshState(20);
  WorkingSetSelector sel(cfg, 20);
  const auto& ws = sel.Update(s.f, s.alpha, s.y, s.c);
  EXPECT_EQ(ws.size(), 8u);
  std::unordered_set<int32_t> uniq(ws.begin(), ws.end());
  EXPECT_EQ(uniq.size(), 8u);
}

TEST(WorkingSetSelectorTest, ClampsToProblemSize) {
  WorkingSetConfig cfg;
  cfg.ws_size = 1024;
  cfg.q = 512;
  WorkingSetSelector sel(cfg, 6);
  EXPECT_EQ(sel.ws_size(), 6);
  EXPECT_LE(sel.q(), 6);
  State s = FreshState(6);
  const auto& ws = sel.Update(s.f, s.alpha, s.y, s.c);
  EXPECT_EQ(ws.size(), 6u);
}

TEST(WorkingSetSelectorTest, PicksMostViolatingFromBothEnds) {
  // f values: up-eligible (y=+1, alpha=0) instances at indexes 0..9 with
  // f = index; low-eligible (y=-1, alpha=0) at 10..19 with f = index.
  State s;
  for (int i = 0; i < 20; ++i) {
    const bool up = i < 10;
    s.y.push_back(up ? int8_t{1} : int8_t{-1});
    s.alpha.push_back(0.0);
    s.f.push_back(static_cast<double>(i));
  }
  s.FinishC();
  WorkingSetConfig cfg;
  cfg.ws_size = 4;
  cfg.q = 4;
  WorkingSetSelector sel(cfg, 20);
  const auto& ws = sel.Update(s.f, s.alpha, s.y, s.c);
  std::unordered_set<int32_t> got(ws.begin(), ws.end());
  // Up side: smallest f among up-eligible = {0, 1}; low side: largest f
  // among low-eligible = {19, 18}.
  EXPECT_TRUE(got.count(0));
  EXPECT_TRUE(got.count(1));
  EXPECT_TRUE(got.count(19));
  EXPECT_TRUE(got.count(18));
}

TEST(WorkingSetSelectorTest, KeepsHalfOnRefresh) {
  WorkingSetConfig cfg;
  cfg.ws_size = 8;
  cfg.q = 4;
  State s = FreshState(40);
  WorkingSetSelector sel(cfg, 40);
  const auto first = sel.Update(s.f, s.alpha, s.y, s.c);
  std::unordered_set<int32_t> first_set(first.begin(), first.end());

  const auto& second = sel.Update(s.f, s.alpha, s.y, s.c);
  EXPECT_EQ(second.size(), 8u);
  int kept = 0;
  for (int32_t m : second) kept += first_set.count(m) ? 1 : 0;
  // At least ws_size - q members survive the refresh (the keep-half rule).
  // With unchanged f, dropped members may also be re-admitted as still-most-
  // violating, so this is a lower bound, not an equality.
  EXPECT_GE(kept, 4);
}

TEST(WorkingSetSelectorTest, FifoDropsOldestMembers) {
  WorkingSetConfig cfg;
  cfg.ws_size = 4;
  cfg.q = 2;
  cfg.drop_policy = WorkingSetConfig::DropPolicy::kOldest;
  State s = FreshState(30);
  WorkingSetSelector sel(cfg, 30);
  auto ws1 = sel.Update(s.f, s.alpha, s.y, s.c);
  auto ws2 = sel.Update(s.f, s.alpha, s.y, s.c);
  auto ws3 = sel.Update(s.f, s.alpha, s.y, s.c);
  // After two refreshes of q=2 each, none of ws1's first-admitted members
  // need have survived, but the set size stays ws_size and stays unique.
  EXPECT_EQ(ws3.size(), 4u);
  std::unordered_set<int32_t> uniq(ws3.begin(), ws3.end());
  EXPECT_EQ(uniq.size(), 4u);
  (void)ws2;
}

TEST(WorkingSetSelectorTest, LeastViolatingDropPolicy) {
  WorkingSetConfig cfg;
  cfg.ws_size = 4;
  cfg.q = 2;
  cfg.drop_policy = WorkingSetConfig::DropPolicy::kLeastViolating;
  State s = FreshState(30);
  WorkingSetSelector sel(cfg, 30);
  sel.Update(s.f, s.alpha, s.y, s.c);
  const auto& ws = sel.Update(s.f, s.alpha, s.y, s.c);
  EXPECT_EQ(ws.size(), 4u);
  std::unordered_set<int32_t> uniq(ws.begin(), ws.end());
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(WorkingSetSelectorTest, HandlesOneSidedEligibility) {
  // Everyone is up-eligible only (all y=+1, alpha=0): selector fills from
  // one side rather than failing.
  State s;
  for (int i = 0; i < 10; ++i) {
    s.y.push_back(1);
    s.alpha.push_back(0.0);
    s.f.push_back(static_cast<double>(i));
  }
  s.FinishC();
  WorkingSetConfig cfg;
  cfg.ws_size = 6;
  cfg.q = 6;
  WorkingSetSelector sel(cfg, 10);
  const auto& ws = sel.Update(s.f, s.alpha, s.y, s.c);
  EXPECT_EQ(ws.size(), 6u);
  for (int32_t m : ws) EXPECT_TRUE(InUpSet(s.y[m], s.alpha[m], s.c[m]));
}

TEST(WorkingSetSelectorTest, MembersAlwaysUnique) {
  // Free SVs are in both eligibility sets; make sure nobody is admitted
  // twice.
  State s;
  for (int i = 0; i < 12; ++i) {
    s.y.push_back(i % 2 == 0 ? int8_t{1} : int8_t{-1});
    s.alpha.push_back(0.5);  // free: both up and low eligible
    s.f.push_back(static_cast<double>(i % 5));
  }
  s.FinishC();
  WorkingSetConfig cfg;
  cfg.ws_size = 10;
  cfg.q = 10;
  WorkingSetSelector sel(cfg, 12);
  const auto& ws = sel.Update(s.f, s.alpha, s.y, s.c);
  std::unordered_set<int32_t> uniq(ws.begin(), ws.end());
  EXPECT_EQ(uniq.size(), ws.size());
}

// Parameterized sweep over (ws_size, q) combinations: set size invariants
// hold for every configuration.
class WorkingSetSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WorkingSetSweepTest, SizeAndUniquenessInvariants) {
  auto [ws_size, q] = GetParam();
  WorkingSetConfig cfg;
  cfg.ws_size = ws_size;
  cfg.q = q;
  const int n = 64;
  State s = FreshState(n);
  WorkingSetSelector sel(cfg, n);
  for (int round = 0; round < 5; ++round) {
    const auto& ws = sel.Update(s.f, s.alpha, s.y, s.c);
    EXPECT_LE(static_cast<int>(ws.size()), sel.ws_size());
    EXPECT_GE(static_cast<int>(ws.size()), 2);
    std::unordered_set<int32_t> uniq(ws.begin(), ws.end());
    EXPECT_EQ(uniq.size(), ws.size());
    for (int32_t m : ws) {
      EXPECT_GE(m, 0);
      EXPECT_LT(m, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkingSetSweepTest,
                         ::testing::Combine(::testing::Values(4, 16, 32, 64, 128),
                                            ::testing::Values(2, 8, 16, 64)));

// --- Reference selection ----------------------------------------------------

// A direct implementation of the selection: sort all n instances by
// (f, index), drop the q stale members, then admit by scanning the sorted
// order from both ends. It shares nothing with the selector's candidate
// path, so it is the reference both Update() and every distributed shard
// split must match.
class FullSortReference {
 public:
  FullSortReference(const WorkingSetConfig& config, int64_t n)
      : policy_(config.drop_policy), n_(n) {
    ws_size_ = static_cast<int>(std::min<int64_t>(std::max(2, config.ws_size), n));
    q_ = std::clamp(config.q, 2, ws_size_);
  }

  const std::vector<int32_t>& Update(const State& s) {
    std::vector<int32_t> sorted(static_cast<size_t>(n_));
    for (int64_t i = 0; i < n_; ++i) sorted[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    std::sort(sorted.begin(), sorted.end(), [&s](int32_t a, int32_t b) {
      if (s.f[a] != s.f[b]) return s.f[a] < s.f[b];
      return a < b;
    });
    if (!members_.empty()) Drop(std::min<int>(q_, static_cast<int>(members_.size())), s);
    Admit(sorted, ws_size_ - static_cast<int>(members_.size()), s);
    return members_;
  }

 private:
  void Drop(int count, const State& s) {
    std::set<int32_t> to_drop;
    if (policy_ == WorkingSetConfig::DropPolicy::kOldest) {
      while (static_cast<int>(to_drop.size()) < count && !insertion_order_.empty()) {
        const int32_t oldest = insertion_order_.front();
        insertion_order_.pop_front();
        if (member_set_.count(oldest) != 0) to_drop.insert(oldest);
      }
    } else {
      double f_up_min = std::numeric_limits<double>::infinity();
      double f_low_max = -std::numeric_limits<double>::infinity();
      for (int64_t i = 0; i < n_; ++i) {
        if (InUpSet(s.y[i], s.alpha[i], s.c[i])) f_up_min = std::min(f_up_min, s.f[i]);
        if (InLowSet(s.y[i], s.alpha[i], s.c[i])) f_low_max = std::max(f_low_max, s.f[i]);
      }
      std::vector<std::pair<double, int32_t>> scored;
      for (int32_t m : members_) {
        double score = -std::numeric_limits<double>::infinity();
        if (InUpSet(s.y[m], s.alpha[m], s.c[m])) score = std::max(score, f_low_max - s.f[m]);
        if (InLowSet(s.y[m], s.alpha[m], s.c[m])) score = std::max(score, s.f[m] - f_up_min);
        scored.emplace_back(score, m);
      }
      std::sort(scored.begin(), scored.end());
      for (int i = 0; i < count; ++i) to_drop.insert(scored[static_cast<size_t>(i)].second);
    }
    std::vector<int32_t> kept;
    for (int32_t m : members_) {
      if (to_drop.count(m) == 0) kept.push_back(m);
    }
    members_ = std::move(kept);
    for (int32_t d : to_drop) member_set_.erase(d);
  }

  void Admit(const std::vector<int32_t>& sorted, int count, const State& s) {
    if (count <= 0) return;
    const auto take = [&](int32_t i) {
      members_.push_back(i);
      member_set_.insert(i);
      insertion_order_.push_back(i);
    };
    int added = 0;
    int up_added = 0;
    for (size_t k = 0; k < sorted.size() && up_added < count / 2; ++k) {
      const int32_t i = sorted[k];
      if (member_set_.count(i) != 0 || !InUpSet(s.y[i], s.alpha[i], s.c[i])) continue;
      take(i);
      ++up_added;
      ++added;
    }
    int low_added = 0;
    for (size_t k = sorted.size(); k-- > 0 && low_added < count - up_added;) {
      const int32_t i = sorted[k];
      if (member_set_.count(i) != 0 || !InLowSet(s.y[i], s.alpha[i], s.c[i])) continue;
      take(i);
      ++low_added;
      ++added;
    }
    for (size_t k = 0; k < sorted.size() && added < count; ++k) {
      const int32_t i = sorted[k];
      if (member_set_.count(i) != 0 || !InUpSet(s.y[i], s.alpha[i], s.c[i])) continue;
      take(i);
      ++added;
    }
  }

  WorkingSetConfig::DropPolicy policy_;
  int64_t n_;
  int ws_size_ = 0;
  int q_ = 0;
  std::vector<int32_t> members_;
  std::deque<int32_t> insertion_order_;
  std::set<int32_t> member_set_;
};

// Contiguous [begin, end) shard bounds: shard j gets [j*n/S, (j+1)*n/S).
std::vector<std::pair<int64_t, int64_t>> ShardBounds(int64_t n, int shards) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (int j = 0; j < shards; ++j) {
    out.emplace_back(j * n / shards, (j + 1) * n / shards);
  }
  return out;
}

// Deterministic mixed solver-like state: a spread of f values, some bound
// and some free alphas, both labels.
State MixedState(int n) {
  State s;
  for (int i = 0; i < n; ++i) {
    s.y.push_back((i % 2 == 0) ? int8_t{1} : int8_t{-1});
    const int phase = i % 4;
    s.alpha.push_back(phase == 0 ? 0.0 : (phase == 1 ? 1.0 : 0.5));
    // Irrational stride spreads f without ties; a few duplicates are added
    // below to exercise the (f, index) tie-break.
    s.f.push_back(std::fmod(static_cast<double>(i) * 0.7548776662, 3.0) - 1.5);
  }
  for (int i = 8; i + 5 < n; i += 9) s.f[i + 5] = s.f[i];  // forced ties
  s.FinishC();
  return s;
}

// Mixed state where only every third f value is distinct: long runs of
// equal f put the (f, index) tie-break on every admission.
State TiedState(int n) {
  State s = MixedState(n);
  for (int i = 0; i < n; ++i) s.f[static_cast<size_t>(i)] = s.f[static_cast<size_t>(i - i % 3)];
  return s;
}

// Every instance is up-eligible only (y = +1, alpha = 0): the low side is
// empty and the up side must fill the whole refresh.
State OneSidedState(int n) {
  State s;
  for (int i = 0; i < n; ++i) {
    s.y.push_back(1);
    s.alpha.push_back(0.0);
    s.f.push_back(std::fmod(static_cast<double>(i) * 0.618, 2.0));
  }
  s.FinishC();
  return s;
}

// Evolves the state the way solver iterations would: perturbs f and moves
// some working-set alphas between free and bound.
void Evolve(const std::vector<int32_t>& ws, int round, State* s) {
  for (int32_t m : ws) {
    s->f[static_cast<size_t>(m)] += (m % 3 == 0) ? 0.25 : -0.125;
    s->alpha[static_cast<size_t>(m)] =
        (round + m) % 3 == 0 ? 0.0 : ((round + m) % 3 == 1 ? 1.0 : 0.5);
  }
}

struct RefCase {
  const char* name;
  State (*make)(int);
  int n;
  int ws_size;
  int q;
};

// n = 103 is prime, so shard splits are uneven; ws_size >= n clamps the set
// to every instance.
const RefCase kRefCases[] = {
    {"mixed", MixedState, 103, 16, 6},
    {"ties", TiedState, 103, 16, 8},
    {"one-sided", OneSidedState, 40, 12, 12},
    {"ws>=n", MixedState, 30, 64, 32},
    {"ws==n", TiedState, 24, 24, 12},
};

TEST(WorkingSetReferenceTest, UpdateMatchesFullSortForBothDropPolicies) {
  for (const auto policy : {WorkingSetConfig::DropPolicy::kOldest,
                            WorkingSetConfig::DropPolicy::kLeastViolating}) {
    for (const RefCase& tc : kRefCases) {
      WorkingSetConfig cfg;
      cfg.ws_size = tc.ws_size;
      cfg.q = tc.q;
      cfg.drop_policy = policy;
      State s = tc.make(tc.n);
      WorkingSetSelector sel(cfg, tc.n);
      FullSortReference ref(cfg, tc.n);
      for (int round = 0; round < 8; ++round) {
        const std::vector<int32_t> expected = ref.Update(s);
        const std::vector<int32_t> got = sel.Update(s.f, s.alpha, s.y, s.c);
        ASSERT_EQ(got, expected) << tc.name << " policy=" << static_cast<int>(policy)
                                 << " round=" << round;
        Evolve(got, round, &s);
      }
    }
  }
}

// The merged shard selection must equal the full-sort selection exactly —
// same members, same order — for any shard partition, across consecutive
// refreshes of an evolving state. This is the property the sharded solve's
// byte-identity proof leans on (solver/batch_smo_solver.h).
TEST(WorkingSetDistributedRefreshTest, MatchesFullSortForAnyShardCount) {
  for (const RefCase& tc : kRefCases) {
    WorkingSetConfig cfg;
    cfg.ws_size = tc.ws_size;
    cfg.q = tc.q;
    for (int shards : {1, 2, 3, 4, 7}) {
      State s = tc.make(tc.n);
      FullSortReference ref(cfg, tc.n);
      WorkingSetSelector dist(cfg, tc.n);
      for (int round = 0; round < 6; ++round) {
        const std::vector<int32_t> expected = ref.Update(s);
        const int needed = dist.BeginDistributedRefresh();
        std::vector<WorkingSetSelector::ShardCandidates> collected;
        for (const auto& [begin, end] : ShardBounds(tc.n, shards)) {
          collected.push_back(
              dist.CollectShardCandidates(begin, end, needed, s.f, s.alpha, s.y, s.c));
        }
        const std::vector<int32_t> merged = dist.FinishDistributedRefresh(collected, s.f);
        ASSERT_EQ(merged, expected)
            << tc.name << " shards=" << shards << " round=" << round;
        Evolve(merged, round, &s);
      }
    }
  }
}

TEST(WorkingSetDistributedRefreshTest, CollectIsPure) {
  WorkingSetConfig cfg;
  cfg.ws_size = 8;
  cfg.q = 4;
  const int n = 24;
  State s = MixedState(n);
  WorkingSetSelector sel(cfg, n);
  const int needed = sel.BeginDistributedRefresh();
  const auto once = sel.CollectShardCandidates(0, n, needed, s.f, s.alpha, s.y, s.c);
  const auto twice = sel.CollectShardCandidates(0, n, needed, s.f, s.alpha, s.y, s.c);
  EXPECT_EQ(once.up, twice.up);
  EXPECT_EQ(once.low, twice.low);
}

}  // namespace
}  // namespace gmpsvm
