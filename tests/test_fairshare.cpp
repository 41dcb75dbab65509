// Property-based tests of the max-min fair allocator.
#include "net/fairshare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace frieda::net {
namespace {

TEST(FairShare, EmptyInputs) {
  EXPECT_TRUE(max_min_fair_rates({}, {}).empty());
  EXPECT_TRUE(max_min_fair_rates({100.0}, {}).empty());
}

TEST(FairShare, SingleFlowGetsFullCapacity) {
  const auto rates = max_min_fair_rates({10.0}, {{{0}}});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
}

TEST(FairShare, EqualSplitOnSharedLink) {
  const auto rates = max_min_fair_rates({12.0}, {{{0}}, {{0}}, {{0}}});
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 4.0);
}

TEST(FairShare, BottleneckedFlowFreesCapacityForOthers) {
  // Flow 0 crosses both links; link 1 is tight.  Flow 1 only crosses link 0
  // and should pick up what flow 0 cannot use.
  const auto rates = max_min_fair_rates({10.0, 2.0}, {{{0, 1}}, {{0}}});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
}

TEST(FairShare, ClassicThreeFlowExample) {
  // Textbook max-min instance: links A=10, B=10; flows: f0 over A+B,
  // f1 over A, f2 over B.  Fair allocation: f0=5, f1=5, f2=5.
  const auto rates = max_min_fair_rates({10.0, 10.0}, {{{0, 1}}, {{0}}, {{1}}});
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
  EXPECT_DOUBLE_EQ(rates[2], 5.0);
}

TEST(FairShare, ZeroCapacityResourceZeroesItsFlows) {
  const auto rates = max_min_fair_rates({0.0, 10.0}, {{{0}}, {{1}}});
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 10.0);
}

TEST(FairShare, InvalidFlowThrows) {
  EXPECT_THROW(max_min_fair_rates({1.0}, {{{5}}}), FriedaError);
  EXPECT_THROW(max_min_fair_rates({1.0}, {{{}}}), FriedaError);
}

// Property sweep: random instances must satisfy the max-min invariants.
class FairShareProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FairShareProperty, InvariantsHold) {
  Rng rng(GetParam());
  const std::size_t nr = 1 + rng.index(6);
  const std::size_t nf = 1 + rng.index(12);
  std::vector<Bandwidth> caps(nr);
  for (auto& c : caps) c = rng.uniform(1.0, 100.0);
  std::vector<FlowConstraints> flows(nf);
  for (auto& f : flows) {
    const std::size_t k = 1 + rng.index(nr);
    for (std::size_t j = 0; j < k; ++j) {
      f.resources.push_back(rng.index(nr));
    }
  }
  const auto rates = max_min_fair_rates(caps, flows);
  ASSERT_EQ(rates.size(), nf);

  // Invariant 1: feasibility — no resource is oversubscribed.
  std::vector<double> load(nr, 0.0);
  for (std::size_t i = 0; i < nf; ++i) {
    EXPECT_GE(rates[i], 0.0);
    for (std::size_t r : flows[i].resources) load[r] += rates[i];
  }
  for (std::size_t r = 0; r < nr; ++r) EXPECT_LE(load[r], caps[r] * (1.0 + 1e-9));

  // Invariant 2: every flow is bottlenecked — it crosses at least one
  // saturated resource on which it has a maximal rate (the max-min
  // optimality condition).
  for (std::size_t i = 0; i < nf; ++i) {
    bool bottlenecked = false;
    for (std::size_t r : flows[i].resources) {
      const bool saturated = load[r] >= caps[r] * (1.0 - 1e-9);
      if (!saturated) continue;
      bool maximal = true;
      for (std::size_t j = 0; j < nf; ++j) {
        if (j == i) continue;
        const bool shares =
            std::find(flows[j].resources.begin(), flows[j].resources.end(), r) !=
            flows[j].resources.end();
        if (shares && rates[j] > rates[i] * (1.0 + 1e-9)) {
          maximal = false;
          break;
        }
      }
      if (maximal) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << i << " is not max-min bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FairShareProperty,
                         ::testing::Range<std::uint64_t>(0, 50));

TEST(FairShareWeighted, SingleClassMatchesExpandedFlows) {
  // Three identical flows over one 12-unit link, as one class of count 3.
  const auto rates = max_min_fair_rates_weighted({12.0}, {{{0}, 3}});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 4.0);
}

TEST(FairShareWeighted, CountOnePathIsTheFlatSolver) {
  const auto flat = max_min_fair_rates({10.0, 2.0}, {{{0, 1}}, {{0}}});
  const auto weighted = max_min_fair_rates_weighted({10.0, 2.0}, {{{0, 1}, 1}, {{0}, 1}});
  ASSERT_EQ(weighted.size(), 2u);
  EXPECT_DOUBLE_EQ(weighted[0], flat[0]);
  EXPECT_DOUBLE_EQ(weighted[1], flat[1]);
}

TEST(FairShareWeighted, ZeroCountClassThrows) {
  EXPECT_THROW(max_min_fair_rates_weighted({1.0}, {{{0}, 0}}), FriedaError);
}

// Equivalence property: coalescing identical flows into counted classes must
// give every member flow the same rate the flat per-flow solver computes,
// including orphan flows (only unconstrained resources) and zero-residual
// (zero-capacity) edges, and regardless of how class members interleave.
class WeightedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedEquivalence, CoalescedRatesMatchFlatSolver) {
  Rng rng(GetParam() * 7919 + 3);
  const std::size_t nr = 1 + rng.index(6);
  std::vector<Bandwidth> caps(nr);
  for (auto& c : caps) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.15) {
      c = 0.0;  // zero-residual edge: flows crossing it must get rate 0
    } else if (roll < 0.3) {
      c = std::numeric_limits<Bandwidth>::infinity();  // unconstrained
    } else {
      c = rng.uniform(1.0, 100.0);
    }
  }

  const std::size_t nc = 1 + rng.index(5);
  std::vector<WeightedFlowConstraints> classes(nc);
  std::vector<FlowConstraints> flat;
  std::vector<std::size_t> class_of_flat;
  for (std::size_t c = 0; c < nc; ++c) {
    const std::size_t k = 1 + rng.index(nr);
    for (std::size_t j = 0; j < k; ++j) classes[c].resources.push_back(rng.index(nr));
    classes[c].count = 1 + rng.index(6);
    for (std::uint64_t m = 0; m < classes[c].count; ++m) {
      flat.push_back({classes[c].resources});
      class_of_flat.push_back(c);
    }
  }
  // Interleave class members: the flat solver must not depend on member
  // adjacency for the coalesced result to match.
  for (std::size_t i = flat.size(); i > 1; --i) {
    const std::size_t j = rng.index(i);
    std::swap(flat[i - 1], flat[j]);
    std::swap(class_of_flat[i - 1], class_of_flat[j]);
  }

  const auto flat_rates = max_min_fair_rates(caps, flat);
  const auto class_rates = max_min_fair_rates_weighted(caps, classes);
  ASSERT_EQ(class_rates.size(), nc);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_NEAR(flat_rates[i], class_rates[class_of_flat[i]], 1e-9)
        << "flow " << i << " of class " << class_of_flat[i];
  }

  // Feasibility of the coalesced allocation at full member counts.
  std::vector<double> load(nr, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t r : classes[c].resources) {
      load[r] += class_rates[c] * static_cast<double>(classes[c].count);
    }
  }
  for (std::size_t r = 0; r < nr; ++r) EXPECT_LE(load[r], caps[r] * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, WeightedEquivalence,
                         ::testing::Range<std::uint64_t>(0, 60));

// Textbook progressive filling, one flow at a time and independent of
// progressive_fill: each round computes every resource's equal share, takes
// the smallest as the bottleneck, freezes every flow crossing a resource
// whose round-start share is within 1e-12 of it, and then subtracts the
// share once per frozen flow (and per listing of a resource) from each
// resource that still carries unfrozen flows.
std::vector<Bandwidth> reference_rates(const std::vector<Bandwidth>& caps,
                                       const std::vector<FlowConstraints>& flows) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> residual = caps;
  std::vector<std::uint64_t> unfrozen(caps.size(), 0);
  for (const auto& f : flows) {
    for (const std::size_t r : f.resources) ++unfrozen[r];
  }
  std::vector<Bandwidth> rate(flows.size(), 0.0);
  std::vector<bool> frozen(flows.size(), false);
  std::size_t remaining = flows.size();
  while (remaining > 0) {
    std::vector<double> share(caps.size(), inf);
    double best = inf;
    for (std::size_t r = 0; r < caps.size(); ++r) {
      if (unfrozen[r] == 0) continue;
      share[r] = std::max(residual[r], 0.0) / static_cast<double>(unfrozen[r]);
      best = std::min(best, share[r]);
    }
    if (best == inf) break;  // only unconstrained resources left
    std::vector<std::size_t> round;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (frozen[f]) continue;
      for (const std::size_t r : flows[f].resources) {
        if (share[r] <= best * (1.0 + 1e-12)) {
          round.push_back(f);
          break;
        }
      }
    }
    for (const std::size_t f : round) {
      frozen[f] = true;
      rate[f] = best;
      for (const std::size_t r : flows[f].resources) --unfrozen[r];
    }
    remaining -= round.size();
    for (const std::size_t f : round) {
      for (const std::size_t r : flows[f].resources) {
        if (unfrozen[r] > 0) residual[r] -= best;
      }
    }
  }
  return rate;
}

// The solver against the textbook reference, bit for bit: random coalesced
// instances with classes that list a resource twice, zero and infinite
// capacities, and capacities set so that round-one shares sit within a few
// 1e-12 of a tie (either side of the freeze tolerance).
class FillReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FillReference, SolverMatchesTextbookPerFlowFillBitForBit) {
  Rng rng(GetParam() * 104729 + 11);
  const std::size_t nr = 1 + rng.index(8);
  const std::size_t nc = 1 + rng.index(8);
  std::vector<WeightedFlowConstraints> classes(nc);
  std::vector<std::uint64_t> crossing(nr, 0);
  for (auto& cls : classes) {
    const std::size_t k = 1 + rng.index(std::min<std::size_t>(nr, 4));
    for (std::size_t j = 0; j < k; ++j) cls.resources.push_back(rng.index(nr));
    if (rng.chance(0.2)) cls.resources.push_back(cls.resources.front());  // listed twice
    cls.count = 1 + rng.index(5);
    for (const std::size_t r : cls.resources) crossing[r] += cls.count;
  }
  // Near ties: every constrained resource's round-one share is `base`
  // nudged by a relative offset around the 1e-12 tolerance.
  const double base = rng.uniform(1.0, 100.0);
  const double nudges[] = {0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, 1e-9};
  std::vector<Bandwidth> caps(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.1) {
      caps[r] = 0.0;
    } else if (roll < 0.2) {
      caps[r] = std::numeric_limits<Bandwidth>::infinity();
    } else if (roll < 0.7) {
      const double nudge = nudges[rng.index(std::size(nudges))];
      caps[r] = base * static_cast<double>(std::max<std::uint64_t>(crossing[r], 1)) * (1.0 + nudge);
    } else {
      caps[r] = rng.uniform(1.0, 100.0);
    }
  }

  std::vector<FlowConstraints> flat;
  std::vector<std::size_t> class_of_flat;
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::uint64_t m = 0; m < classes[c].count; ++m) {
      flat.push_back({classes[c].resources});
      class_of_flat.push_back(c);
    }
  }
  const auto expected = reference_rates(caps, flat);
  const auto weighted = max_min_fair_rates_weighted(caps, classes);
  const auto per_flow = max_min_fair_rates(caps, flat);
  for (std::size_t f = 0; f < flat.size(); ++f) {
    EXPECT_EQ(weighted[class_of_flat[f]], expected[f]) << "flow " << f;
    EXPECT_EQ(per_flow[f], expected[f]) << "flow " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FillReference,
                         ::testing::Range<std::uint64_t>(0, 400));

}  // namespace
}  // namespace frieda::net
