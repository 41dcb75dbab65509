#include "storage/device.hpp"

#include <limits>

#include "common/error.hpp"

namespace frieda::storage {

namespace {
constexpr double kEpsilonBytes = 1e-6;
// Minimum scheduling step; see net/network.cpp for the rationale.
constexpr double kMinTimeStep = 1e-9;
}  // namespace

SharedService::SharedService(sim::Simulation& sim, Bandwidth rate) : sim_(sim), rate_(rate) {
  FRIEDA_CHECK(rate_ > 0.0, "service rate must be > 0");
}

sim::Task<IoResult> SharedService::submit(Bytes bytes) {
  IoResult result;
  const SimTime start = sim_.now();
  if (failed_) {
    result.ok = false;
    co_return result;
  }
  if (bytes == 0) co_return result;

  Op op(sim_, static_cast<double>(bytes));

  advance();
  ops_.push_back(&op);
  reschedule();

  co_await op.signal.wait();
  result.ok = op.ok;
  result.duration = sim_.now() - start;
  co_return result;
}

void SharedService::advance() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_advance_;
  if (dt > 0.0 && !ops_.empty()) {
    const double share = rate_ / static_cast<double>(ops_.size());
    for (Op* op : ops_) op->remaining -= share * dt;
  }
  last_advance_ = now;
}

void SharedService::reschedule() {
  advance();  // a no-op after submit()'s own advance
  const double prev_share =
      ops_.empty() ? rate_ : rate_ / static_cast<double>(ops_.size());
  std::size_t kept = 0;  // compact the live ops to the front, in order
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    Op* op = ops_[i];
    if (op->done) continue;
    if (op->remaining <= kEpsilonBytes || op->remaining <= prev_share * kMinTimeStep) {
      op->done = true;
      op->signal.trigger();
      continue;
    }
    ops_[kept++] = op;
  }
  ops_.resize(kept);

  if (ops_.empty()) {
    completion_.disarm();
    return;
  }
  const double share = rate_ / static_cast<double>(ops_.size());
  double soonest = std::numeric_limits<double>::infinity();
  for (const Op* op : ops_) soonest = std::min(soonest, op->remaining / share);
  completion_.arm_at(sim_.now() + std::max(soonest, kMinTimeStep));
}

void SharedService::fail() {
  if (failed_) return;
  failed_ = true;
  advance();
  for (Op* op : ops_) {
    if (op->done) continue;
    op->done = true;
    op->ok = false;
    op->signal.trigger();
  }
  ops_.clear();
  completion_.disarm();
}

void SharedService::restore() { failed_ = false; }

LocalDisk::LocalDisk(sim::Simulation& sim, Bandwidth read_bw, Bandwidth write_bw, Bytes capacity)
    : read_path_(sim, read_bw), write_path_(sim, write_bw), capacity_(capacity) {}

bool LocalDisk::allocate(Bytes bytes) {
  if (bytes > available()) return false;
  used_ += bytes;
  return true;
}

void LocalDisk::release(Bytes bytes) {
  FRIEDA_CHECK(bytes <= used_, "releasing more than reserved");
  used_ -= bytes;
}

sim::Task<IoResult> LocalDisk::read(Bytes bytes) { return read_path_.submit(bytes); }

sim::Task<IoResult> LocalDisk::write(Bytes bytes) { return write_path_.submit(bytes); }

void LocalDisk::fail() {
  read_path_.fail();
  write_path_.fail();
}

void LocalDisk::restore() {
  read_path_.restore();
  write_path_.restore();
}

}  // namespace frieda::storage
