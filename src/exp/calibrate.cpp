#include "exp/calibrate.hpp"

namespace frieda::exp {

void CostCalibrator::observe(const std::string& key, double raw_cost, double wall_seconds) {
  if (raw_cost <= 0.0 || wall_seconds <= 0.0) return;
  const double observed = wall_seconds / raw_cost;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, fresh] = rate_.try_emplace(key, observed);
  if (!fresh) it->second += kAlpha * (observed - it->second);
}

std::optional<double> CostCalibrator::rate(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rate_.find(key);
  if (it == rate_.end()) return std::nullopt;
  return it->second;
}

double CostCalibrator::calibrated(const std::string& key, double raw_cost) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rate_.find(key);
  return it == rate_.end() ? raw_cost : raw_cost * it->second;
}

std::size_t CostCalibrator::classes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rate_.size();
}

void CostCalibrator::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rate_.clear();
}

CostCalibrator& CostCalibrator::global() {
  static CostCalibrator calibrator;
  return calibrator;
}

}  // namespace frieda::exp
