#include "jfm/support/executor.hpp"

#include <algorithm>
#include <cstdlib>

namespace jfm::support::executor {
namespace {

// Which executor (if any) owns the current thread, and that thread's
// home lane. Lets a worker's nested submits land on its own deque.
thread_local Executor* tl_exec = nullptr;
thread_local std::size_t tl_lane = 0;

}  // namespace

bool TaskHandle::done() const {
  if (!state_) return true;
  std::lock_guard<std::mutex> g(state_->mu);
  return state_->done;
}

void TaskHandle::wait() const {
  if (!state_) return;
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
}

Executor::Executor(std::size_t workers)
    : lanes_(std::min<std::size_t>(workers == 0 ? default_worker_count() : workers, 64)),
      submitted_(telemetry::Registry::global().counter("executor.task.submitted.count")),
      completed_(telemetry::Registry::global().counter("executor.task.completed.count")),
      stolen_(telemetry::Registry::global().counter("executor.steal.count")),
      depth_(telemetry::Registry::global().gauge("executor.queue.depth")),
      workers_gauge_(telemetry::Registry::global().gauge("executor.workers")) {
  workers_gauge_.set(static_cast<std::int64_t>(lanes_.size()));
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> g(wake_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Workers drain their deques before exiting, so leftovers only exist
  // if the pool never started. Complete them so no handle waits forever.
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> g(lane.mu);
    for (auto& task : lane.q) run_task(*task);
    lane.q.clear();
  }
}

Executor& Executor::global() {
  // Function-local static: the telemetry Registry (bound in the
  // constructor) is created first and therefore destroyed last.
  static Executor instance;
  return instance;
}

std::size_t Executor::default_worker_count() {
  if (const char* env = std::getenv("JFM_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<std::size_t>(std::min(v, 64l));
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(hw, 8);
}

void Executor::ensure_started() {
  std::call_once(start_once_, [this] {
    threads_.reserve(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
    started_.store(true, std::memory_order_release);
  });
}

TaskHandle Executor::submit(std::function<void()> fn) {
  ensure_started();
  auto state = std::make_shared<TaskState>();
  state->fn = std::move(fn);
  state->span = telemetry::current_span_id();
  const std::size_t lane =
      tl_exec == this ? tl_lane
                      : rr_.fetch_add(1, std::memory_order_relaxed) % lanes_.size();
  {
    std::lock_guard<std::mutex> g(lanes_[lane].mu);
    lanes_[lane].q.push_back(state);
  }
  submitted_.add(1);
  {
    // The 0->1 transition must happen under wake_mu_ or a worker that
    // just saw an empty queue could sleep through the notify.
    std::lock_guard<std::mutex> g(wake_mu_);
    depth_.set(static_cast<std::int64_t>(
        queued_.fetch_add(1, std::memory_order_relaxed) + 1));
  }
  wake_cv_.notify_one();
  return TaskHandle(std::move(state));
}

bool Executor::try_run_one(std::size_t home) {
  std::shared_ptr<TaskState> task;
  const std::size_t n = lanes_.size();
  for (std::size_t i = 0; i < n && !task; ++i) {
    const std::size_t idx = (home + i) % n;
    Lane& lane = lanes_[idx];
    std::lock_guard<std::mutex> g(lane.mu);
    if (lane.q.empty()) continue;
    if (idx == home) {
      task = std::move(lane.q.back());  // own lane: LIFO, cache-warm
      lane.q.pop_back();
    } else {
      task = std::move(lane.q.front());  // steal: FIFO, oldest first
      lane.q.pop_front();
      stolen_.add(1);
    }
  }
  if (!task) return false;
  depth_.set(static_cast<std::int64_t>(
      queued_.fetch_sub(1, std::memory_order_relaxed) - 1));
  run_task(*task);
  return true;
}

void Executor::run_task(TaskState& task) {
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> g(task.mu);
    fn = std::move(task.fn);
    task.fn = nullptr;
  }
  if (fn) {
    // Run in the submitter's span context, then restore this thread's
    // own (a helping caller may be inside spans of its own).
    const std::uint64_t own = telemetry::exchange_current_span_id(task.span);
    fn();
    telemetry::exchange_current_span_id(own);
  }
  {
    std::lock_guard<std::mutex> g(task.mu);
    task.done = true;
  }
  task.cv.notify_all();
  completed_.add(1);
}

void Executor::worker_loop(std::size_t home) {
  tl_exec = this;
  tl_lane = home;
  for (;;) {
    if (try_run_one(home)) continue;
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_relaxed) == 0) {
      return;  // drained on stop
    }
  }
}

void Executor::help_until(const TaskHandle& h) {
  if (!h.state_) return;
  const std::size_t home = tl_exec == this ? tl_lane : 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> g(h.state_->mu);
      if (h.state_->done) return;
    }
    if (!try_run_one(home)) {
      // Nothing left to help with: the task is running on a worker.
      std::unique_lock<std::mutex> lk(h.state_->mu);
      h.state_->cv.wait(lk, [&] { return h.state_->done; });
      return;
    }
  }
}

Status Executor::parallel_for(std::size_t n, std::size_t parallelism,
                              const std::function<Status(std::size_t)>& fn) {
  if (n == 0) return {};
  const std::size_t lanes = std::min(std::max<std::size_t>(parallelism, 1), n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::size_t err_index = n;
  Status first_error;
  auto lane = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (Status st = fn(i); !st.ok()) {
        failed.store(true, std::memory_order_relaxed);
        // Keep the lowest-index failure so the reported error does not
        // depend on lane interleaving.
        std::lock_guard<std::mutex> g(err_mu);
        if (i < err_index) {
          err_index = i;
          first_error = std::move(st);
        }
      }
    }
  };
  std::vector<TaskHandle> handles;
  handles.reserve(lanes - 1);
  for (std::size_t i = 1; i < lanes; ++i) handles.push_back(submit(lane));
  lane();  // the calling thread is always one of the lanes
  for (const auto& h : handles) help_until(h);
  return first_error;
}

}  // namespace jfm::support::executor
