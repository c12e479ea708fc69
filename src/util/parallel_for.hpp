#pragma once
// parallel_for: the library's one task loop (internal, not installed; used by
// ParallelBacktracking and SessionManager::run_all).
//
// Workers pull task indices from one shared atomic cursor.  Callers never
// depend on which worker ran which index: they write per-worker or per-index
// state and merge it in index order afterwards, so results are independent
// of scheduling.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace tunespace::util {

/// Calls `fn(worker, index)` exactly once for every index in [0, count) on
/// min(workers, count) workers (`workers` = 0 counts as 1) and returns that
/// worker count; worker ids are dense in [0, returned).  A single worker
/// runs inline on the calling thread; more get one thread each.  The first
/// exception `fn` throws stops new indices from starting and is rethrown
/// once every thread has joined, so every write made by `fn` is visible
/// when parallel_for returns or throws.
template <class Fn>
std::size_t parallel_for(std::size_t count, std::size_t workers, Fn&& fn) {
  const std::size_t used = std::min(std::max<std::size_t>(workers, 1), count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto fail = [&] {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
    failed = true;
  };
  const auto drain = [&](std::size_t worker) {
    while (!failed) {
      const std::size_t index = next++;
      if (index >= count) return;
      try {
        fn(worker, index);
      } catch (...) {
        fail();
      }
    }
  };

  // With several workers the caller only waits: running worker 0 on the
  // calling thread made bench_scaling's full-size synthetic-dense suite about
  // a third slower at 4 threads (4-vCPU x86-64 VM).
  std::vector<std::thread> pool;
  if (used == 1) {
    drain(0);
  } else if (used > 1) {
    pool.reserve(used);
    try {
      for (std::size_t w = 0; w < used; ++w) pool.emplace_back(drain, w);
    } catch (...) {
      fail();  // could not spawn: stop the started workers, then rethrow
    }
  }
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
  return used;
}

}  // namespace tunespace::util
