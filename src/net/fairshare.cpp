#include "net/fairshare.hpp"

#include <ranges>

#include "common/error.hpp"

namespace frieda::net {

namespace {

// Every resource of a capacity table, for the wrappers (which solve over all).
auto all_resources(const std::vector<Bandwidth>& capacities) {
  return std::views::iota(std::size_t{0}, capacities.size());
}

}  // namespace

std::vector<Bandwidth> max_min_fair_rates(const std::vector<Bandwidth>& capacities,
                                          const std::vector<FlowConstraints>& flows) {
  std::vector<Bandwidth> rate(flows.size(), 0.0);
  if (flows.empty()) return rate;
  FairshareScratch scratch;
  progressive_fill(
      capacities, all_resources(capacities), flows.size(),
      [&](std::size_t f) { return FillClass{flows[f].resources, 1, rate[f]}; }, scratch);
  return rate;
}

std::vector<Bandwidth> max_min_fair_rates_weighted(
    const std::vector<Bandwidth>& capacities,
    const std::vector<WeightedFlowConstraints>& classes) {
  std::vector<Bandwidth> rate(classes.size(), 0.0);
  if (classes.empty()) return rate;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    FRIEDA_CHECK(classes[c].count > 0, "flow class " << c << " has zero members");
  }
  FairshareScratch scratch;
  progressive_fill(
      capacities, all_resources(capacities), classes.size(),
      [&](std::size_t c) { return FillClass{classes[c].resources, classes[c].count, rate[c]}; },
      scratch);
  return rate;
}

}  // namespace frieda::net
