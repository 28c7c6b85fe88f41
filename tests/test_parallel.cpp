// The parallel runtime: the parallel_for utility and the checkpointed shard
// runner, cross-thread-count determinism of extraction and parity
// selection, budget starvation under concurrency, and the splitmix64-mixed
// Rng streams the workers rely on.

#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <tuple>

#include "benchdata/handwritten.hpp"
#include "common/shards.hpp"
#include "benchdata/suite.hpp"
#include "core/extract.hpp"
#include "core/pipeline.hpp"
#include "core/run.hpp"
#include "core/rng.hpp"
#include "kiss/kiss.hpp"
#include "sim/fault_sim.hpp"
#include "sim/faults.hpp"

namespace ced {
namespace {

fsm::FsmCircuit circuit_for(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary);
}

// ---------------------------------------------------------------- utility

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(threads, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(4, 64,
                   [&](std::size_t i) {
                     if (i % 3 == 0) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, SerialDegradationRunsInline) {
  // threads=1 must not spawn: the loop body sees the calling thread's
  // stack/thread-locals and runs in index order.
  std::vector<std::size_t> order;
  parallel_for(1, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ShardBounds, PartitionIsContiguousAndComplete) {
  for (std::size_t n : {0u, 1u, 5u, 64u, 101u}) {
    for (int shards : {1, 2, 4, 9}) {
      const auto b = shard_bounds(n, shards);
      ASSERT_EQ(b.size(), static_cast<std::size_t>(shards) + 1);
      EXPECT_EQ(b.front(), 0u);
      EXPECT_EQ(b.back(), n);
      for (std::size_t i = 0; i + 1 < b.size(); ++i) EXPECT_LE(b[i], b[i + 1]);
    }
  }
}

TEST(ResolveThreads, ExplicitRequestWinsOverEnvironment) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_GE(resolve_threads(0), 1);
  setenv("CED_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5);
  EXPECT_EQ(resolve_threads(2), 2);  // API override beats the env
  unsetenv("CED_THREADS");
}

// ---------------------------------------------------------- shard runner

/// A checkpointable shard for the runner tests; a computed one holds
/// 10 * index, and a shard split into items holds one slot per item.
struct FakeShard {
  std::uint32_t index = 0;
  std::uint32_t num_shards = 0;
  int value = 0;
  std::vector<int> items;
};

/// The split step of a shard computed as a single item.
std::size_t one_item(std::uint32_t, FakeShard&) { return 1; }

/// In-memory checkpoints: `checkpoints` feeds load, and every save is
/// recorded (workers save concurrently, hence the mutex).
struct FakeStore {
  std::map<std::uint32_t, FakeShard> checkpoints;
  std::mutex mu;
  std::set<std::uint32_t> saved;
  std::vector<FakeShard> saved_shards;  ///< as each save saw it

  ShardHooks<FakeShard> hooks() {
    ShardHooks<FakeShard> h;
    h.load = [this](std::uint32_t s, std::uint32_t, FakeShard& out) {
      const auto it = checkpoints.find(s);
      if (it == checkpoints.end()) return false;
      out = it->second;
      return true;
    };
    h.save = [this](const FakeShard& sh) {
      std::lock_guard<std::mutex> lock(mu);
      saved.insert(sh.index);
      saved_shards.push_back(sh);
    };
    return h;
  }
};

/// Accepts a checkpoint unless its value is negative.
bool usable_fake(std::uint32_t, const FakeShard& sh) { return sh.value >= 0; }

/// The indices of `shards`, in order.
std::vector<std::uint32_t> indices(const std::vector<FakeShard>& shards) {
  std::vector<std::uint32_t> out;
  for (const FakeShard& sh : shards) out.push_back(sh.index);
  return out;
}

TEST(ParallelShardRun, QuotaComputesTheFirstMissingShards) {
  for (const int threads : {1, 4}) {
    FakeStore store;
    store.checkpoints[1] = {1, 5, 11, {}};
    store.checkpoints[3] = {3, 5, 33, {}};
    const ShardHooks<FakeShard> hooks = store.hooks();
    ShardRun<FakeShard> run({.num_shards = 5, .max_new_shards = 2}, 5,
                            hooks, usable_fake);
    EXPECT_EQ(run.pending(), 2u);
    std::mutex mu;
    std::set<std::uint32_t> computed;
    run.compute(threads, one_item, [&](std::uint32_t s, std::size_t item,
                                       FakeShard& sh) {
      EXPECT_EQ(item, 0u);
      EXPECT_EQ(sh.index, s);
      EXPECT_EQ(sh.num_shards, 5u);
      sh.value = static_cast<int>(10 * s);
      std::lock_guard<std::mutex> lock(mu);
      computed.insert(s);
      return true;
    });
    EXPECT_EQ(computed, (std::set<std::uint32_t>{0, 2})) << threads;
    EXPECT_EQ(store.saved, (std::set<std::uint32_t>{0, 2}));
    EXPECT_EQ(run.resumed(), 2u);
    EXPECT_EQ(run.skipped(), 1u);
    EXPECT_EQ(run.partial(), 0u);
    const std::vector<FakeShard> present = run.take();
    EXPECT_EQ(indices(present), (std::vector<std::uint32_t>{0, 1, 2, 3}));
    EXPECT_EQ(present[1].value, 11);  // loaded, not recomputed
    EXPECT_EQ(present[2].value, 20);
  }
}

TEST(ParallelShardRun, ForeignOrUnusableCheckpointsAreRecomputed) {
  for (const int threads : {1, 4}) {
    FakeStore store;
    store.checkpoints[0] = {2, 4, 0, {}};   // names another index
    store.checkpoints[1] = {1, 8, 0, {}};   // names another shard count
    store.checkpoints[2] = {2, 4, -1, {}};  // rejected by usable
    store.checkpoints[3] = {3, 4, 33, {}};  // kept
    const ShardHooks<FakeShard> hooks = store.hooks();
    ShardRun<FakeShard> run({.num_shards = 4}, 4, hooks, usable_fake);
    EXPECT_EQ(run.pending(), 3u);
    run.compute(threads, one_item,
                [](std::uint32_t s, std::size_t, FakeShard& sh) {
                  sh.value = static_cast<int>(10 * s);
                  return true;
                });
    EXPECT_EQ(run.resumed(), 1u);
    EXPECT_EQ(run.skipped(), 0u);
    EXPECT_EQ(store.saved, (std::set<std::uint32_t>{0, 1, 2})) << threads;
    const std::vector<FakeShard> present = run.take();
    ASSERT_EQ(indices(present), (std::vector<std::uint32_t>{0, 1, 2, 3}));
    for (const FakeShard& sh : present) {
      EXPECT_EQ(sh.num_shards, 4u);
      EXPECT_EQ(sh.value, static_cast<int>(sh.index == 3 ? 33 : 10 * sh.index));
    }
  }
}

TEST(ParallelShardRun, PartialShardIsKeptButNeverSaved) {
  for (const int threads : {1, 4}) {
    FakeStore store;
    const ShardHooks<FakeShard> hooks = store.hooks();
    ShardRun<FakeShard> run({.num_shards = 4}, 4, hooks, usable_fake);
    run.compute(threads, one_item,
                [](std::uint32_t s, std::size_t, FakeShard& sh) {
                  sh.value = static_cast<int>(10 * s);
                  return s != 2;  // a valve stops shard 2
                });
    EXPECT_EQ(run.partial(), 1u);
    EXPECT_EQ(store.saved, (std::set<std::uint32_t>{0, 1, 3})) << threads;
    EXPECT_EQ(indices(run.take()),
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
  }
}

/// Runs shards of 5, 0, 1 and 7 items over `threads` workers; item i of
/// shard s writes 100 * s + i into its slot and completes unless
/// skip(s, i). Returns the finish calls as (shard, complete, slots filled).
std::vector<std::tuple<std::uint32_t, bool, std::size_t>> run_items(
    int threads, FakeStore& store,
    const std::function<bool(std::uint32_t, std::size_t)>& skip) {
  const std::size_t sizes[] = {5, 0, 1, 7};
  const ShardHooks<FakeShard> hooks = store.hooks();
  ShardRun<FakeShard> run({.num_shards = 4}, 4, hooks, usable_fake);
  std::mutex mu;
  std::vector<std::tuple<std::uint32_t, bool, std::size_t>> finished;
  run.compute(
      threads,
      [&](std::uint32_t s, FakeShard& sh) {
        sh.items.assign(sizes[s], -1);
        return sizes[s];
      },
      [&](std::uint32_t s, std::size_t i, FakeShard& sh) {
        if (skip(s, i)) return false;
        sh.items[i] = static_cast<int>(100 * s + i);
        return true;
      },
      [&](std::uint32_t s, FakeShard& sh, bool complete) {
        const auto filled = static_cast<std::size_t>(
            std::count_if(sh.items.begin(), sh.items.end(),
                          [](int v) { return v >= 0; }));
        std::lock_guard<std::mutex> lock(mu);
        finished.emplace_back(s, complete, filled);
      });
  EXPECT_EQ(indices(run.take()), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  std::sort(finished.begin(), finished.end());
  return finished;
}

TEST(ParallelShardRun, MultiItemShardIsSavedOnceByTheWorkerThatEndsIt) {
  for (const int threads : {1, 3, 4}) {
    SCOPED_TRACE(threads);
    FakeStore store;
    const auto finished =
        run_items(threads, store, [](std::uint32_t, std::size_t) {
          return false;
        });
    // Each shard ends once, after every one of its items.
    EXPECT_EQ(finished, (std::vector<std::tuple<std::uint32_t, bool,
                                                std::size_t>>{{0, true, 5},
                                                              {1, true, 0},
                                                              {2, true, 1},
                                                              {3, true, 7}}));
    ASSERT_EQ(store.saved_shards.size(), 4u);
    for (const FakeShard& sh : store.saved_shards) {
      for (std::size_t i = 0; i < sh.items.size(); ++i) {
        EXPECT_EQ(sh.items[i], static_cast<int>(100 * sh.index + i));
      }
    }
  }
}

TEST(ParallelShardRun, ShardWithASkippedItemIsPartial) {
  for (const int threads : {1, 3, 4}) {
    SCOPED_TRACE(threads);
    FakeStore store;
    const auto finished =
        run_items(threads, store, [](std::uint32_t s, std::size_t i) {
          return s == 3 && i == 2;  // a valve stops one item of shard 3
        });
    EXPECT_EQ(finished, (std::vector<std::tuple<std::uint32_t, bool,
                                                std::size_t>>{{0, true, 5},
                                                              {1, true, 0},
                                                              {2, true, 1},
                                                              {3, false, 6}}));
    EXPECT_EQ(store.saved, (std::set<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(store.saved_shards.size(), 3u);
  }
}

TEST(ParallelShardRun, SerialClaimsRunInShardThenItemOrder) {
  FakeStore store;
  const ShardHooks<FakeShard> hooks = store.hooks();
  store.checkpoints[1] = {1, 3, 11, {}};
  ShardRun<FakeShard> run({.num_shards = 3}, 3, hooks, usable_fake);
  std::vector<std::pair<std::uint32_t, std::size_t>> order;
  run.compute(
      1, [](std::uint32_t s, FakeShard&) { return std::size_t{s + 2}; },
      [&](std::uint32_t s, std::size_t i, FakeShard&) {
        order.emplace_back(s, i);
        return true;
      });
  EXPECT_EQ(order, (std::vector<std::pair<std::uint32_t, std::size_t>>{
                       {0, 0}, {0, 1}, {2, 0}, {2, 1}, {2, 2}, {2, 3}}));
}

TEST(ParallelShardRun, NegativePlanFieldsThrow) {
  const ShardHooks<FakeShard> hooks;
  EXPECT_THROW(ShardRun<FakeShard>({.num_shards = -1}, 1, hooks, usable_fake),
               std::invalid_argument);
  EXPECT_THROW(
      ShardRun<FakeShard>({.max_new_shards = -1}, 1, hooks, usable_fake),
      std::invalid_argument);
}

// ----------------------------------------------------------- determinism

TEST(ParallelExtract, TablesAreIdenticalAcrossThreadCounts) {
  for (const char* name : {"link_rx", "traffic", "arbiter"}) {
    const fsm::FsmCircuit c = circuit_for(name);
    const auto faults = sim::enumerate_stuck_at(c.netlist);
    core::ExtractOptions serial;
    serial.latency = 3;
    serial.threads = 1;
    core::ExtractOptions wide = serial;
    wide.threads = 4;
    const auto t1 = core::extract_cases_multi(c, faults, serial);
    const auto t4 = core::extract_cases_multi(c, faults, wide);
    ASSERT_EQ(t1.size(), t4.size());
    for (std::size_t p = 0; p < t1.size(); ++p) {
      EXPECT_FALSE(t1[p].truncated);
      EXPECT_FALSE(t4[p].truncated);
      ASSERT_EQ(t1[p].cases.size(), t4[p].cases.size())
          << name << " p=" << p + 1;
      for (std::size_t i = 0; i < t1[p].cases.size(); ++i) {
        EXPECT_TRUE(t1[p].cases[i] == t4[p].cases[i])
            << name << " p=" << p + 1 << " row " << i;
      }
      // Fault/activation counts are per-fault sums, invariant under
      // sharding (unlike num_paths, which depends on per-worker pruning).
      EXPECT_EQ(t1[p].num_faults, t4[p].num_faults);
      EXPECT_EQ(t1[p].num_activations, t4[p].num_activations);
      EXPECT_EQ(t1[p].num_detectable_faults, t4[p].num_detectable_faults);
    }
  }
}

TEST(ParallelExtract, MachineLevelSemanticsAlsoDeterministic) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions serial;
  serial.latency = 2;
  serial.semantics = core::DiffSemantics::kMachineLevel;
  serial.threads = 1;
  core::ExtractOptions wide = serial;
  wide.threads = 3;
  const auto a = core::extract_cases(c, faults, serial);
  const auto b = core::extract_cases(c, faults, wide);
  ASSERT_EQ(a.cases.size(), b.cases.size());
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    EXPECT_TRUE(a.cases[i] == b.cases[i]);
  }
}

/// Asserts two table bundles equal in cases, flags and every statistic.
void expect_same_tables(const std::vector<core::DetectabilityTable>& a,
                        const std::vector<core::DetectabilityTable>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    SCOPED_TRACE("p=" + std::to_string(p + 1));
    EXPECT_TRUE(a[p].cases == b[p].cases);
    EXPECT_EQ(a[p].num_bits, b[p].num_bits);
    EXPECT_EQ(a[p].latency, b[p].latency);
    EXPECT_EQ(a[p].strengthened, b[p].strengthened);
    EXPECT_EQ(a[p].truncated, b[p].truncated);
    EXPECT_EQ(a[p].truncation_reason, b[p].truncation_reason);
    EXPECT_EQ(a[p].num_faults, b[p].num_faults);
    EXPECT_EQ(a[p].num_detectable_faults, b[p].num_detectable_faults);
    EXPECT_EQ(a[p].num_activations, b[p].num_activations);
    EXPECT_EQ(a[p].num_paths, b[p].num_paths);
    EXPECT_EQ(a[p].num_loop_truncations, b[p].num_loop_truncations);
  }
}

TEST(ParallelExtract, NoStorePathIsTheShardEngineAtTheThreadPartition) {
  // Without a store, extraction is the checkpointed shard engine with one
  // shard per thread and no hooks: equal tables, statistics included. ex1
  // at p=2 under a small degrade threshold covers a strengthened table,
  // whose size depends on that partition.
  struct Input {
    std::string name;
    fsm::FsmCircuit circuit;
    int latency;
    std::size_t degrade_threshold;
  };
  std::vector<Input> inputs;
  for (const char* name : {"link_rx", "arbiter", "traffic"}) {
    inputs.push_back({name, circuit_for(name), 3, 2'000'000});
  }
  inputs.push_back(
      {"ex1",
       core::derive_design(benchdata::suite_fsm("ex1"), {}).circuit, 2,
       4096});
  for (const Input& in : inputs) {
    const auto faults = sim::enumerate_stuck_at(in.circuit.netlist);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(in.name + " threads=" + std::to_string(threads));
      core::ExtractOptions opts;
      opts.latency = in.latency;
      opts.degrade_threshold = in.degrade_threshold;
      opts.threads = threads;
      const auto multi = core::extract_cases_multi(in.circuit, faults, opts);
      const auto sharded = core::extract_cases_sharded(
          in.circuit, faults, opts, {.num_shards = threads});
      expect_same_tables(multi, sharded);
      EXPECT_FALSE(multi.back().truncated);
      if (in.name == "ex1") {
        EXPECT_TRUE(multi.back().strengthened);
        EXPECT_EQ(multi.back().cases.size(), threads == 1 ? 2857u : 2886u);
      }
    }
  }
}

/// Reference extraction on the full-pass simulator: every path of every
/// fault from every reachable activation, one distinct (difference word,
/// successor pair) step at a time, with no golden trace, cone rows,
/// pruning or sharding; the table is the subset-minimal canonical cases.
class OracleExtractor {
 public:
  OracleExtractor(const fsm::FsmCircuit& c, int p, core::DiffSemantics sem)
      : c_(c), p_(p), sem_(sem), sets_(static_cast<std::size_t>(p)) {}

  void run(const sim::StuckAtFault& f) {
    inj_ = f.injection();
    good_rows_.clear();
    bad_rows_.clear();
    bool detectable = false;
    for (const std::uint64_t code :
         sim::reachable_codes(c_, c_.enc.reset_code)) {
      for (const auto& [diff, next] : steps({code, code})) {
        if (diff == 0) continue;
        detectable = true;
        ++activations;
        diffs_ = {diff};
        path_ = {next};
        walk();
      }
    }
    detectable_faults += detectable ? 1 : 0;
  }

  /// Sorted like extract_cases_multi's tables: by length, then words.
  std::vector<core::ErroneousCase> table(int p) const {
    const auto& set = sets_[static_cast<std::size_t>(p - 1)];
    std::vector<core::ErroneousCase> out;
    for (const Words& w : set) {
      bool dominated = false;
      for (unsigned mask = 1; mask + 1 < (1u << w.size()); ++mask) {
        Words sub;
        for (std::size_t k = 0; k < w.size(); ++k) {
          if ((mask >> k) & 1) sub.push_back(w[k]);
        }
        dominated = dominated || set.count(sub) != 0;
      }
      if (dominated) continue;
      core::ErroneousCase ec;
      std::copy(w.begin(), w.end(), ec.diff.begin());
      out.push_back(ec);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.length() != b.length() ? a.length() < b.length()
                                      : a.diff < b.diff;
    });
    return out;
  }

  std::size_t activations = 0;
  std::size_t detectable_faults = 0;

 private:
  using Words = std::vector<std::uint64_t>;  ///< sorted distinct nonzero
  using Pair = std::pair<std::uint64_t, std::uint64_t>;  ///< (good, bad)

  const std::vector<std::uint64_t>& row(
      std::map<std::uint64_t, std::vector<std::uint64_t>>& memo,
      std::uint64_t code, const logic::Injection* inj) {
    auto it = memo.find(code);
    if (it == memo.end()) {
      it = memo.emplace(code, sim::simulate_all_inputs(c_, code, inj)).first;
    }
    return it->second;
  }

  /// The distinct (difference word, successor pair) steps from `pair`.
  std::set<std::pair<std::uint64_t, Pair>> steps(const Pair& pair) {
    const auto& good = row(good_rows_, pair.first, nullptr);
    const auto& bad = row(bad_rows_, pair.second, &inj_);
    std::set<std::pair<std::uint64_t, Pair>> out;
    for (std::size_t a = 0; a < good.size(); ++a) {
      const std::uint64_t next_bad = c_.next_state_of(bad[a]);
      const std::uint64_t next_good =
          sem_ == core::DiffSemantics::kMachineLevel
              ? c_.next_state_of(good[a])
              : next_bad;
      out.insert({good[a] ^ bad[a], {next_good, next_bad}});
    }
    return out;
  }

  void record(int table) {
    Words w;
    for (const std::uint64_t d : diffs_) {
      if (d != 0) w.push_back(d);
    }
    std::sort(w.begin(), w.end());
    w.erase(std::unique(w.begin(), w.end()), w.end());
    sets_[static_cast<std::size_t>(table - 1)].insert(w);
  }

  /// Records the current path into its table and extends it; a step back
  /// into a state of the path ends it, and its case then stands for every
  /// longer bound too (the loop rule).
  void walk() {
    const int depth = static_cast<int>(diffs_.size());
    record(depth);
    if (depth == p_) return;
    for (const auto& [diff, next] : steps(path_.back())) {
      diffs_.push_back(diff);
      if (std::find(path_.begin(), path_.end(), next) != path_.end()) {
        for (int t = depth + 1; t <= p_; ++t) record(t);
      } else {
        path_.push_back(next);
        walk();
        path_.pop_back();
      }
      diffs_.pop_back();
    }
  }

  const fsm::FsmCircuit& c_;
  const int p_;
  const core::DiffSemantics sem_;
  logic::Injection inj_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> good_rows_, bad_rows_;
  std::vector<std::set<Words>> sets_;
  std::vector<std::uint64_t> diffs_;
  std::vector<Pair> path_;
};

TEST(ParallelExtract, FourThreadTablesMatchFullPassOracle) {
  // Four workers read one shared golden trace concurrently (this suite runs
  // under TSan), and their cone-restricted rows must yield exactly the
  // tables of a brute-force extraction over the full-pass simulator. One
  // machine also runs p = 4: its machine-level table has four-word cases.
  const std::pair<const char*, int> runs[] = {
      {"link_rx", 3}, {"traffic", 3}, {"arbiter", 3}, {"link_rx", 4}};
  for (const auto& [name, latency] : runs) {
    for (const auto sem : {core::DiffSemantics::kImplementable,
                           core::DiffSemantics::kMachineLevel}) {
      SCOPED_TRACE(std::string(name) + " p=" + std::to_string(latency) +
                   (sem == core::DiffSemantics::kImplementable ? " impl"
                                                               : " machine"));
      const fsm::FsmCircuit c = circuit_for(name);
      const auto faults = sim::enumerate_stuck_at(c.netlist);
      core::ExtractOptions opts;
      opts.latency = latency;
      opts.semantics = sem;
      opts.threads = 4;
      const auto tables = core::extract_cases_multi(c, faults, opts);
      OracleExtractor oracle(c, opts.latency, sem);
      for (const auto& f : faults) oracle.run(f);
      for (int p = 1; p <= opts.latency; ++p) {
        const auto& t = tables[static_cast<std::size_t>(p - 1)];
        EXPECT_FALSE(t.truncated);
        EXPECT_FALSE(t.cases.empty());
        EXPECT_TRUE(t.cases == oracle.table(p)) << "p=" << p;
        EXPECT_EQ(t.num_activations, oracle.activations);
        EXPECT_EQ(t.num_detectable_faults, oracle.detectable_faults);
      }
    }
  }
}

TEST(ParallelPipeline, SelectedParitiesIdenticalAcrossThreadCounts) {
  // End-to-end: same seed, threads=1 vs threads=4 must yield the same
  // detectability tables AND the same selected parity trees for every
  // circuit of the (quick) suite.
  for (const auto& name : benchdata::small_suite_names()) {
    const fsm::Fsm f = benchdata::suite_fsm(name);
    core::PipelineOptions serial;
    serial.latency = 2;
    serial.exec.threads = 1;
    core::PipelineOptions wide = serial;
    wide.exec.threads = 4;
    const auto r1 = ced::run_pipeline(f, ced::RunConfig::wrap(serial));
    const auto r4 = ced::run_pipeline(f, ced::RunConfig::wrap(wide));
    EXPECT_EQ(r1.num_cases, r4.num_cases) << name;
    EXPECT_EQ(r1.num_trees, r4.num_trees) << name;
    EXPECT_EQ(r1.parities, r4.parities) << name;
    EXPECT_EQ(r1.ced_gates, r4.ced_gates) << name;
  }
}

// -------------------------------------------------------------- budgets

TEST(ParallelBudget, CaseValveTruncatesHonestlyUnderConcurrency) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions opts;
  opts.latency = 3;
  opts.threads = 4;
  opts.max_cases = 8;  // starve: the full table is far larger
  const auto t = core::extract_cases(c, faults, opts);
  EXPECT_TRUE(t.truncated);
  EXPECT_FALSE(t.truncation_reason.empty());
  EXPECT_FALSE(t.cases.empty());
  // The partial table is still well-formed: canonical, deduplicated rows.
  for (const auto& ec : t.cases) {
    ASSERT_GE(ec.length(), 1);
    EXPECT_NE(ec.diff[0], 0u);
  }
  for (std::size_t i = 0; i + 1 < t.cases.size(); ++i) {
    for (std::size_t j = i + 1; j < t.cases.size(); ++j) {
      EXPECT_FALSE(t.cases[i] == t.cases[j]);
    }
  }
  // ...and a full pipeline over the starved budget still returns a valid
  // cover of the partial table, flagged as degraded.
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("link_rx")));
  core::PipelineOptions popts;
  popts.latency = 3;
  popts.exec.threads = 4;
  popts.budget.max_cases = 8;
  const auto rep = ced::run_pipeline(f, ced::RunConfig::wrap(popts));
  EXPECT_TRUE(rep.resilience.extraction_truncated);
  EXPECT_TRUE(rep.resilience.degraded());
  EXPECT_FALSE(rep.parities.empty());
}

TEST(ParallelBudget, CaseValveCountsPerShard) {
  // Each shard keeps its own case count, so a truncated no-store table is
  // a function of the inputs and the thread count, never of timing: it
  // equals the shard engine's at one shard per thread.
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions opts;
  opts.latency = 3;
  opts.threads = 4;
  opts.max_cases = 8;
  const auto first = core::extract_cases_multi(c, faults, opts);
  const auto second = core::extract_cases_multi(c, faults, opts);
  const auto sharded =
      core::extract_cases_sharded(c, faults, opts, {.num_shards = 4});
  expect_same_tables(first, second);
  expect_same_tables(first, sharded);
  EXPECT_TRUE(first.back().truncated);
  EXPECT_EQ(first.back().cases.size(), 10u);
}

TEST(ParallelBudget, DeadlineStopsAllWorkers) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions opts;
  opts.latency = 3;
  opts.threads = 4;
  opts.deadline = core::Deadline::after(1e-9);  // effectively pre-expired
  const auto tables = core::extract_cases_multi(c, faults, opts);
  for (const auto& t : tables) {
    EXPECT_TRUE(t.truncated);
    EXPECT_NE(t.truncation_reason.find("wall-clock"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng

TEST(Rng, SeedZeroAndOneDiffer) {
  // The old `seed | 1` initialization aliased these two streams.
  core::Rng a(0), b(1);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, AdjacentSeedsDecorrelated) {
  // Adjacent raw seeds must not produce near-identical first draws: count
  // matching leading bits of the first outputs across seed pairs.
  int shared_bits = 0;
  for (std::uint64_t s = 0; s < 64; ++s) {
    core::Rng a(s), b(s + 1);
    shared_bits += std::popcount(~(a.next() ^ b.next()));
  }
  // Random 64-bit words share ~32 bits on average; 64 pairs ≈ 2048 total.
  EXPECT_NEAR(shared_bits, 2048, 256);
}

TEST(Rng, DefaultSeedSequenceIsDocumented) {
  // Regression anchor for reproducibility claims: the default-seed stream
  // is part of the library's observable behaviour. If this changes, every
  // randomized stage's results change — bump EXPERIMENTS.md when touching
  // the seeding path.
  core::Rng rng;  // seed 0x5eed through splitmix64
  const std::uint64_t first = rng.next();
  core::Rng again;
  EXPECT_EQ(first, again.next());
  core::Rng explicit_seed(0x5eed);
  EXPECT_EQ(core::Rng().next(), explicit_seed.next());
}

TEST(Rng, StreamsAreIndependentOfDrawOrder) {
  core::Rng base(42);
  core::Rng s0 = base.stream(0);
  base.next();  // advancing the parent must not perturb child streams
  core::Rng s0_again = core::Rng(42).stream(0);
  EXPECT_EQ(s0.next(), s0_again.next());
  core::Rng s1 = core::Rng(42).stream(1);
  EXPECT_NE(s0_again.next(), s1.next());
}

TEST(Rng, FlipRespectsProbabilityGrossly) {
  core::Rng rng(7);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.flip(0.25) ? 1 : 0;
  EXPECT_NEAR(heads, 2500, 300);
}

}  // namespace
}  // namespace ced
