#pragma once

// The execution policy: how many worker threads a run uses. The thread
// count never changes q or the selected parity functions, only
// wall-clock. CED_THREADS remains a defaults-only fallback: an explicit
// policy always wins, threads 0 defers to the env var, and an unset env
// var defers to the hardware concurrency (see resolve_threads).
//
// The policy is ambient and thread-local: ScopedExecPolicy installs a
// refinement for the current thread, and parallel_for re-installs the
// caller's ambient policy inside every worker it spawns, so a policy
// pinned around a run is seen by all of that run's workers and by nobody
// else's. That is what makes per-request pinning in ced_serve sound:
// two concurrent requests with different thread counts never observe
// each other. Because the policy never shapes results, it is deliberately
// EXCLUDED from RunConfig::digest() — two requests differing only in
// policy dedup onto the same in-flight run and share one cache entry.

namespace ced {

struct ExecPolicy {
  /// Worker threads for the parallel stages: >= 1 exact, 0 = defer to
  /// CED_THREADS / hardware concurrency (see resolve_threads).
  int threads = 0;
};

namespace detail {
inline thread_local ExecPolicy g_ambient_exec{};
}

/// The ambient policy of the calling thread (threads 0 unless a
/// ScopedExecPolicy is active somewhere up the stack).
inline const ExecPolicy& ambient_exec() { return detail::g_ambient_exec; }

/// RAII refinement of the ambient policy for the current thread: a
/// thread count >= 1 in `p` overrides the surrounding ambient value, 0
/// inherits it, and destruction restores the previous policy exactly.
/// parallel_for captures the caller's ambient policy and installs it in
/// each worker, so a scope opened around a parallel stage covers every
/// thread of that stage.
class ScopedExecPolicy {
 public:
  explicit ScopedExecPolicy(const ExecPolicy& p)
      : saved_(detail::g_ambient_exec) {
    if (p.threads > 0) detail::g_ambient_exec.threads = p.threads;
  }
  ~ScopedExecPolicy() { detail::g_ambient_exec = saved_; }
  ScopedExecPolicy(const ScopedExecPolicy&) = delete;
  ScopedExecPolicy& operator=(const ScopedExecPolicy&) = delete;

 private:
  ExecPolicy saved_;
};

}  // namespace ced
