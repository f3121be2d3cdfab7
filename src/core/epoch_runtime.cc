#include "core/epoch_runtime.h"

#include <algorithm>

#include "obs/alloc_probe.h"
#include "obs/obs.h"

namespace mfg::core {

EpochRuntime::EpochRuntime(std::size_t parallelism) {
  const std::size_t workers = parallelism > 0 ? parallelism : 1;
  contexts_.resize(workers);
  if (workers > 1) {
    threads_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }
}

EpochRuntime::~EpochRuntime() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void EpochRuntime::WorkerEpoch(std::size_t w) {
  WorkerContext& ctx = contexts_[w];
  ctx.contents_solved = 0;
  const std::size_t allocs_before = obs::ThreadAllocationCount();
  {
    MFG_OBS_SPAN_ID("EpochRuntime.Worker", static_cast<std::int64_t>(w));
    // Block b is [b·B, min(count, (b+1)·B)) whichever worker claims it:
    // round-robin claims b = w, w + W, ...; stealing claims the next index.
    const std::size_t block = job_block_size_;
    const std::size_t num_blocks =
        job_count_ == 0 ? 0 : (job_count_ + block - 1) / block;
    const auto claim = [&](std::size_t previous) {
      return job_round_robin_
                 ? previous + contexts_.size()
                 : next_.fetch_add(1, std::memory_order_relaxed);
    };
    for (std::size_t b = job_round_robin_ ? w : claim(0); b < num_blocks;
         b = claim(b)) {
      const std::size_t begin = b * block;
      const std::size_t end = std::min(job_count_, begin + block);
      job_block_fn_(job_ctx_, w, begin, end);
      ctx.contents_solved += end - begin;
    }
  }
  ctx.allocations = obs::ThreadAllocationCount() - allocs_before;
  if (ctx.contents_solved > 0) ctx.warmed = true;
}

void EpochRuntime::WorkerLoop(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    WorkerEpoch(w);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++workers_done_;
      if (workers_done_ == threads_.size()) done_cv_.notify_one();
    }
  }
}

void EpochRuntime::RunEpochBlocks(std::size_t count, std::size_t block_size,
                                  BlockFn fn, void* ctx) {
  if (block_size == 0) block_size = 1;
  bool round_robin = false;
  for (const WorkerContext& worker : contexts_) {
    if (!worker.warmed) round_robin = true;
  }

  if (threads_.empty()) {
    job_count_ = count;
    job_block_fn_ = fn;
    job_block_size_ = block_size;
    job_ctx_ = ctx;
    // One worker: the round-robin partition *is* the serial order; skip
    // the stealing atomics entirely.
    job_round_robin_ = true;
    WorkerEpoch(0);
  } else {
    std::unique_lock<std::mutex> lock(mutex_);
    job_count_ = count;
    job_block_fn_ = fn;
    job_block_size_ = block_size;
    job_ctx_ = ctx;
    job_round_robin_ = round_robin;
    next_.store(0, std::memory_order_relaxed);
    workers_done_ = 0;
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [&] { return workers_done_ == threads_.size(); });
  }

  std::size_t total_allocations = 0;
  for (const WorkerContext& worker : contexts_) {
    MFG_OBS_OBSERVE_COUNTS("core.epoch_runtime.worker_contents",
                           static_cast<double>(worker.contents_solved));
    total_allocations += worker.allocations;
  }
  last_epoch_allocations_ = total_allocations;
  MFG_OBS_COUNT("core.epoch_runtime.epochs", 1);
  MFG_OBS_GAUGE_SET("core.epoch_runtime.workers",
                    static_cast<double>(contexts_.size()));
  MFG_OBS_GAUGE_SET("core.epoch_runtime.epoch_allocs",
                    static_cast<double>(total_allocations));
}

}  // namespace mfg::core
