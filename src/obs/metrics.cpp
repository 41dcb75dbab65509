#include "obs/metrics.hpp"

#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace frieda::obs {

namespace {

/// Format a double without trailing-zero noise (counters stay integral).
std::string num(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

}  // namespace

template <typename T, typename... Args>
T& MetricsRegistry::get_or_create(const std::string& name, std::unique_ptr<T> Instrument::*slot,
                                  Args... args) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& inst = instruments_[name];
  if (!(inst.*slot)) {
    FRIEDA_CHECK(!inst.counter && !inst.gauge && !inst.stats && !inst.histogram,
                 "metric '" << name << "' already registered with another kind");
    inst.*slot = std::make_unique<T>(args...);
  }
  return *(inst.*slot);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return get_or_create(name, &Instrument::counter);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return get_or_create(name, &Instrument::gauge);
}

RunningStats& MetricsRegistry::stats(const std::string& name) {
  return get_or_create(name, &Instrument::stats);
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                      std::size_t bins) {
  return get_or_create(name, &Instrument::histogram, lo, hi, bins);
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.counter.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.gauge.get();
}

const RunningStats* MetricsRegistry::find_stats(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.stats.get();
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.histogram.get();
}

std::string MetricsRegistry::csv() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "name,kind,value\n";
  for (const auto& [name, inst] : instruments_) {
    if (inst.counter) {
      os << name << ",counter," << inst.counter->value() << "\n";
    } else if (inst.gauge) {
      os << name << ",gauge," << num(inst.gauge->value()) << "\n";
    } else if (inst.stats) {
      const auto& s = *inst.stats;
      os << name << ".count,stats," << s.count() << "\n";
      os << name << ".mean,stats," << num(s.mean()) << "\n";
      os << name << ".min,stats," << num(s.count() ? s.min() : 0.0) << "\n";
      os << name << ".max,stats," << num(s.count() ? s.max() : 0.0) << "\n";
      os << name << ".sum,stats," << num(s.sum()) << "\n";
    } else if (inst.histogram) {
      const auto& h = *inst.histogram;
      for (std::size_t i = 0; i < h.buckets(); ++i) {
        os << name << ".bucket_" << i << ",histogram," << h.bucket(i) << "\n";
      }
      os << name << ".total,histogram," << h.total() << "\n";
    }
  }
  return os.str();
}

std::string MetricsRegistry::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, inst] : instruments_) {
    if (inst.counter) {
      os << name << " = " << inst.counter->value() << "\n";
    } else if (inst.gauge) {
      os << name << " = " << num(inst.gauge->value()) << "\n";
    } else if (inst.stats) {
      const auto& s = *inst.stats;
      os << name << " = n=" << s.count() << " mean=" << num(s.mean())
         << " min=" << num(s.count() ? s.min() : 0.0)
         << " max=" << num(s.count() ? s.max() : 0.0) << "\n";
    } else if (inst.histogram) {
      os << name << " = histogram(" << inst.histogram->total() << " samples)\n";
    }
  }
  return os.str();
}

void MetricsRegistry::write_csv(const std::string& path) const {
  write_text_file(path, csv(), "metrics");
}

}  // namespace frieda::obs
