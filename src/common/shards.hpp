#pragma once

// The checkpoint protocol of extraction (core::extract_cases_sharded) and
// the fault-injection campaign (sim::run_campaign). A run splits its units
// into a fixed number of contiguous shards (shard_bounds), and a shard's
// result is a pure function of its block, so a completed shard is a
// durable unit of work.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"

namespace ced {

struct ShardPlan {
  /// Checkpoint shards (0 = core::kDefaultCheckpointShards), clamped to the
  /// unit count; the resolved count is part of each engine's cache key.
  int num_shards = 0;
  /// Compute at most this many new shards this run (0 = no limit); the
  /// rest are skipped and the result reports truncation.
  int max_new_shards = 0;
};

/// Checkpoint callbacks, wired up by the storage layer (the engines do no
/// file I/O). `load` fills `out` and returns true when a checkpoint exists
/// for shard `index` of `num_shards`; `save` receives every newly completed
/// shard, possibly from several workers at once. Either may be empty.
template <typename Shard>
struct ShardHooks {
  std::function<bool(std::uint32_t, std::uint32_t, Shard&)> load;
  std::function<void(const Shard&)> save;
};

/// One checkpointed run; `Shard` has `index` and `num_shards` fields. The
/// load and compute steps are separate so extraction builds its golden
/// trace only when a shard is left to compute.
template <typename Shard>
class ShardRun {
 public:
  /// The load step over `num_shards` (plan.num_shards resolved against the
  /// unit count): keeps each checkpoint that names shard s of num_shards
  /// and that usable(s, shard) accepts, and lists the first
  /// plan.max_new_shards missing shards in index order. `hooks` must
  /// outlive the run. Throws std::invalid_argument for a negative plan
  /// field.
  template <typename Usable>
  ShardRun(const ShardPlan& plan, int num_shards,
           const ShardHooks<Shard>& hooks, Usable&& usable)
      : hooks_(hooks),
        shards_(static_cast<std::size_t>(num_shards)),
        state_(shards_.size(), kAbsent) {
    if (plan.num_shards < 0) {
      throw std::invalid_argument("num_shards must be >= 0 (0 = default), "
                                  "got " + std::to_string(plan.num_shards));
    }
    if (plan.max_new_shards < 0) {
      throw std::invalid_argument(
          "max_new_shards must be >= 0 (0 = no limit), got " +
          std::to_string(plan.max_new_shards));
    }
    const auto n = static_cast<std::uint32_t>(num_shards);
    const auto quota = static_cast<std::size_t>(plan.max_new_shards);
    for (std::uint32_t s = 0; s < n; ++s) {
      Shard loaded;
      if (hooks.load && hooks.load(s, n, loaded) && loaded.index == s &&
          loaded.num_shards == n && usable(s, loaded)) {
        shards_[s] = std::move(loaded);
        state_[s] = kComplete;
        ++resumed_;
      } else if (quota == 0 || todo_.size() < quota) {
        todo_.push_back(s);
      } else {
        ++skipped_;
      }
    }
  }

  /// Shards the compute step will run.
  std::size_t pending() const { return todo_.size(); }

  /// The compute step: compute(s, shard) fills every listed shard (index
  /// and num_shards already set) under parallel_for(threads) and returns
  /// whether it completed. Only complete shards go to hooks.save; a partial
  /// one (stopped by a valve) stays in this run's result.
  template <typename Compute>
  void compute(int threads, Compute&& compute) {
    parallel_for(threads, todo_.size(), [&](std::size_t i) {
      const std::uint32_t s = todo_[i];
      Shard& shard = shards_[s];
      shard.index = s;
      shard.num_shards = static_cast<std::uint32_t>(shards_.size());
      const bool complete = compute(s, shard);
      if (complete && hooks_.save) hooks_.save(shard);
      state_[s] = complete ? kComplete : kPartial;
    });
  }

  /// The present shards (loaded or computed) in index order, moved out.
  std::vector<Shard> take() {
    std::vector<Shard> out;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (state_[s] != kAbsent) out.push_back(std::move(shards_[s]));
    }
    return out;
  }

  /// Shards loaded from checkpoints, left over by the quota, and computed
  /// but stopped by a valve.
  std::size_t resumed() const { return resumed_; }
  std::size_t skipped() const { return skipped_; }
  std::size_t partial() const {
    return static_cast<std::size_t>(
        std::count(state_.begin(), state_.end(), kPartial));
  }

 private:
  static constexpr char kAbsent = 0, kComplete = 1, kPartial = 2;

  const ShardHooks<Shard>& hooks_;
  std::vector<Shard> shards_;
  std::vector<char> state_;  ///< one slot per shard, written by its worker
  std::vector<std::uint32_t> todo_;
  std::size_t resumed_ = 0;
  std::size_t skipped_ = 0;
};

}  // namespace ced
