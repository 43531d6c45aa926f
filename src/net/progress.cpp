#include "net/progress.hpp"

#include <utility>

#include "net/message.hpp"

namespace triolet::net {

ProgressEngine::ProgressEngine(const std::atomic<bool>* aborted)
    : aborted_(aborted), thread_([this] { loop(); }) {}

ProgressEngine::~ProgressEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  thread_.join();
}

std::shared_ptr<AsyncOpState> ProgressEngine::post(std::function<void()> op) {
  auto state = std::make_shared<AsyncOpState>(deferred_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(std::move(op), state);
    in_flight_ += 1;
  }
  work_cv_.notify_one();
  return state;
}

void ProgressEngine::flush() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
  }
  if (std::exception_ptr e = deferred_->take()) std::rethrow_exception(e);
}

void ProgressEngine::loop() {
  for (;;) {
    // `item` and `error` die at the end of this block, before in_flight_
    // drops: once flush() returns, the engine holds no reference to any op
    // it ran or to its error, so the rank thread that rethrows a deferred
    // error also frees it.
    {
      std::pair<std::function<void()>, std::shared_ptr<AsyncOpState>> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ with a drained queue
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      std::exception_ptr error;
      if (aborted_ && aborted_->load(std::memory_order_acquire)) {
        // Cancellation: the cluster died; deliver nothing.
        error = std::make_exception_ptr(ClusterAborted());
      } else {
        try {
          item.first();
        } catch (...) {
          error = std::current_exception();
        }
      }
      item.second->complete(std::move(error));
      if (item.second->error) item.second->settle(AsyncOpState::kFailed);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= 1;
      if (in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

}  // namespace triolet::net
