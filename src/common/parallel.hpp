#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/exec.hpp"

namespace ced {

/// Resolves a requested worker count to a concrete one:
///   requested >= 1  ->  exactly that many workers (1 = fully serial)
///   requested <= 0  ->  the ambient ExecPolicy's thread count if pinned,
///                       else the CED_THREADS environment variable if set
///                       and positive, otherwise
///                       std::thread::hardware_concurrency
/// The result is always >= 1, so callers can divide by it unconditionally.
inline int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  if (const int amb = ambient_exec().threads; amb >= 1) return amb;
  if (const char* env = std::getenv("CED_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

/// Runs fn(index) for every index in [0, n), distributed over `threads`
/// workers. Indices are claimed dynamically (atomic counter), so uneven
/// per-item cost balances itself; callers that need determinism must make
/// fn(i) depend only on i, never on claim order. With threads <= 1 (or a
/// single item) the loop runs inline on the calling thread — no pool, no
/// atomics — so serial behaviour and serial performance are preserved.
///
/// The first exception thrown by any fn(i) is rethrown on the calling
/// thread after every worker has joined; remaining items are abandoned.
template <typename Fn>
void parallel_for(int threads, std::size_t n, Fn&& fn) {
  threads = resolve_threads(threads);
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads),
                                             n));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::atomic<bool> error_claimed{false};
  // Workers inherit the caller's ambient ExecPolicy: a policy pinned
  // around a parallel stage governs every thread of that stage (fresh
  // std::threads would otherwise start all-auto).
  const ExecPolicy ambient = ambient_exec();
  auto body = [&] {
    ScopedExecPolicy scope(ambient);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        if (!error_claimed.exchange(true, std::memory_order_acq_rel)) {
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(body);
  body();
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// Contiguous block partition of [0, n) into `shards` ranges; shard i is
/// [bounds[i], bounds[i+1]). Deterministic in (n, shards): extraction and
/// the campaign rely on this so a fixed shard count always produces the
/// same per-shard work lists.
inline std::vector<std::size_t> shard_bounds(std::size_t n, int shards) {
  if (shards < 1) shards = 1;
  std::vector<std::size_t> bounds(static_cast<std::size_t>(shards) + 1, 0);
  for (int i = 0; i <= shards; ++i) {
    bounds[static_cast<std::size_t>(i)] =
        n * static_cast<std::size_t>(i) / static_cast<std::size_t>(shards);
  }
  return bounds;
}

}  // namespace ced
