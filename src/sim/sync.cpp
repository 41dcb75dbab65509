#include "sim/sync.hpp"

#include "common/error.hpp"

namespace frieda::sim {

void Signal::trigger() {
  if (triggered_) return;
  triggered_ = true;
  waiters_.wake_all(sim_);
}

Semaphore::Semaphore(Simulation& sim, std::int64_t permits) : sim_(sim), permits_(permits) {
  FRIEDA_CHECK(permits >= 0, "semaphore permits must be >= 0");
}

void Semaphore::release() {
  if (detail::WaitNode* node = waiters_.pop()) {
    node->wake(sim_);
  } else {
    ++permits_;
  }
}

void WaitGroup::add(std::int64_t n) {
  FRIEDA_CHECK(n >= 0, "WaitGroup::add of negative count");
  count_ += n;
}

void WaitGroup::done() {
  FRIEDA_CHECK(count_ > 0, "WaitGroup::done below zero");
  --count_;
  if (count_ == 0) waiters_.wake_all(sim_);
}

}  // namespace frieda::sim
