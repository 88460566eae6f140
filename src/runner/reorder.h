// The campaign engine's one reorder buffer. Workers finish items in
// completion order; the buffer parks the ones that arrive early, keyed by
// index, and hands the in-order prefix to a callback. It runs at two levels
// of the engine: a point's replication records into its GroupEncoder, and
// finished points into the point sinks. Depth is bounded by the completion
// skew of the worker pool (~jobs items), never by the item count.

#ifndef WLANSIM_RUNNER_REORDER_H_
#define WLANSIM_RUNNER_REORDER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace wlansim {

template <typename T>
class ReorderBuffer {
 public:
  // Expects exactly the indices 0..count-1, each once.
  explicit ReorderBuffer(uint64_t count) : count_(count) {}

  // Thread-safe. Parks `item` at `index`, then calls emit(item) for every
  // item of the now-complete in-order prefix, in index order. The emits run
  // under the buffer's lock, so the callback sees a serialized, ordered
  // stream and needs no synchronization of its own. Returns true on the one
  // call that emits the last index. Throws std::out_of_range when index >=
  // count, and std::logic_error when that index was already delivered (a
  // seeding or scheduling bug that would otherwise overwrite a row).
  template <typename Emit>
  bool Deliver(uint64_t index, T item, Emit&& emit) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index >= count_) {
      throw std::out_of_range("index " + std::to_string(index) + " outside a run of " +
                              std::to_string(count_));
    }
    if (index < next_ || pending_.count(index) != 0) {
      throw std::logic_error("index " + std::to_string(index) + " delivered twice");
    }
    pending_.emplace(index, std::move(item));
    max_pending_ = std::max(max_pending_, pending_.size());
    while (!pending_.empty() && pending_.begin()->first == next_) {
      emit(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_;
    }
    return next_ == count_;  // later calls throw, so this is true once
  }

  // Throws std::logic_error unless every index has been emitted.
  void CheckComplete() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ != count_) {
      throw std::logic_error("run ended with " + std::to_string(next_) + " of " +
                             std::to_string(count_) + " items delivered");
    }
  }

  // High-water mark of parked items (counted before each drain), for tests
  // and memory accounting.
  size_t max_reorder_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_pending_;
  }

 private:
  const uint64_t count_;
  mutable std::mutex mu_;
  uint64_t next_ = 0;  // lowest index not yet emitted
  std::map<uint64_t, T> pending_;
  size_t max_pending_ = 0;
};

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_REORDER_H_
