#include "core/extract.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/digest.hpp"
#include "common/parallel.hpp"
#include "core/case_set.hpp"
#include "logic/netlist.hpp"

namespace ced::core {
namespace {

/// One state of the enumerated walk: the fault-free (reference) machine's
/// state and the faulty machine's state. Under kImplementable semantics the
/// reference is re-anchored to the faulty register every step, so good ==
/// bad throughout.
struct Pair {
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  bool operator==(const Pair&) const = default;
};

struct PairHash {
  std::size_t operator()(const Pair& p) const {
    const std::uint64_t h =
        p.good * 0x9e3779b97f4a7c15ull ^ p.bad * 0xc2b2ae3d27d4eb4full;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// Distinct single-step behaviours from one pair under one fault: inputs
/// are grouped into classes by (difference word, successor pair).
struct StepClass {
  std::uint64_t diff = 0;
  Pair next;

  bool operator<(const StepClass& o) const {
    if (diff != o.diff) return diff < o.diff;
    if (next.good != o.next.good) return next.good < o.next.good;
    return next.bad < o.next.bad;
  }
  bool operator==(const StepClass&) const = default;
};

/// Groups one step's inputs into classes by hashing (difference word,
/// successor pair) and sorts only the distinct classes. The result is the
/// sorted duplicate-free class list a sort of every input's class gives, so
/// the enumeration order and every path statistic are unchanged.
class StepClassifier {
 public:
  void classify(const std::vector<std::uint64_t>& golden,
                const std::vector<std::uint64_t>& faulty,
                const fsm::FsmCircuit& c, DiffSemantics semantics,
                std::vector<StepClass>& classes) {
    classes.clear();
    if (++epoch_ == 0) {  // stamps wrapped: clear them once
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
    for (std::size_t a = 0; a < golden.size(); ++a) {
      StepClass cls;
      cls.diff = golden[a] ^ faulty[a];
      cls.next.bad = c.next_state_of(faulty[a]);
      cls.next.good = semantics == DiffSemantics::kMachineLevel
                          ? c.next_state_of(golden[a])
                          : cls.next.bad;  // re-anchor to the real register
      // Neighbouring inputs often share a class: skip the probe for the
      // class found last.
      if (!classes.empty() && classes.back() == cls) continue;
      if (2 * (classes.size() + 1) > slots_.size()) grow(classes);
      if (insert(cls)) classes.push_back(cls);
    }
    std::sort(classes.begin(), classes.end());
  }

 private:
  /// Adds `cls` to the table; false if it was already there.
  bool insert(const StepClass& cls) {
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t h = (cls.diff * 0x9e3779b97f4a7c15ull) ^
                      (cls.next.good * 0xc2b2ae3d27d4eb4full) ^
                      (cls.next.bad * 0x165667b19e3779f9ull);
    for (std::size_t i = (h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
      if (stamps_[i] != epoch_) {
        stamps_[i] = epoch_;
        slots_[i] = cls;
        return true;
      }
      if (slots_[i] == cls) return false;
    }
  }

  /// Doubles the table (sized by the distinct classes seen, not by the
  /// input count) and re-adds the classes found so far.
  void grow(const std::vector<StepClass>& classes) {
    const std::size_t n = std::max<std::size_t>(64, 2 * slots_.size());
    slots_.assign(n, StepClass{});
    stamps_.assign(n, 0);
    epoch_ = 1;
    for (const StepClass& cls : classes) insert(cls);
  }

  std::vector<StepClass> slots_;
  std::vector<std::uint32_t> stamps_;  ///< slot live iff stamp == epoch_
  std::uint32_t epoch_ = 0;
};

/// Canonical form of a path's difference sequence: the sorted set of its
/// distinct nonzero step words. Coverage (exists step with odd overlap)
/// only depends on this set.
ErroneousCase canonicalize(const std::uint64_t* diffs, int len) {
  ErroneousCase ec;
  std::array<std::uint64_t, kMaxLatency> tmp{};
  int n = 0;
  for (int k = 0; k < len; ++k) {
    if (diffs[k] != 0) tmp[static_cast<std::size_t>(n++)] = diffs[k];
  }
  // Insertion sort: n <= kMaxLatency (tiny), and it avoids std::sort's
  // large inlined thresholds that trip -Warray-bounds on small arrays.
  for (int i = 1; i < n; ++i) {
    const std::uint64_t v = tmp[static_cast<std::size_t>(i)];
    int j = i;
    while (j > 0 && tmp[static_cast<std::size_t>(j - 1)] > v) {
      tmp[static_cast<std::size_t>(j)] = tmp[static_cast<std::size_t>(j - 1)];
      --j;
    }
    tmp[static_cast<std::size_t>(j)] = v;
  }
  int m = 0;
  for (int k = 0; k < n; ++k) {
    if (k == 0 || tmp[static_cast<std::size_t>(k)] !=
                      tmp[static_cast<std::size_t>(k - 1)]) {
      ec.diff[static_cast<std::size_t>(m++)] = tmp[static_cast<std::size_t>(k)];
    }
  }
  return ec;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Write-only case-set counters of one extraction worker (obs): distinct
/// cases added to a table's set, inserts refused because a subset was
/// already there, subset lookups, compaction passes and the cases they
/// removed, the step classes the walk reads and the StepClassifier runs
/// that formed them, and the seconds of every compaction pass and degrade
/// step. Results never depend on them.
struct CaseCounters {
  std::uint64_t case_inserts = 0;
  std::uint64_t cases_dominated = 0;
  std::uint64_t subset_probes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t cases_compacted = 0;
  std::uint64_t step_classes = 0;
  std::uint64_t classifications = 0;
  std::vector<double> compaction_seconds;
  std::vector<double> degrade_seconds;

  /// Counts a compaction pass that began at `t0` and removed `removed`
  /// cases.
  void compacted(std::size_t removed,
                 std::chrono::steady_clock::time_point t0) {
    ++compactions;
    cases_compacted += removed;
    compaction_seconds.push_back(seconds_since(t0));
  }

  /// Adds every counter to `shard` and observes every timed pass.
  void record(obs::MetricsShard& shard) const {
    shard.add("ced_extract_case_inserts_total", case_inserts);
    shard.add("ced_extract_cases_dominated_total", cases_dominated);
    shard.add("ced_extract_subset_probes_total", subset_probes);
    shard.add("ced_extract_compactions_total", compactions);
    shard.add("ced_extract_cases_compacted_total", cases_compacted);
    shard.add("ced_extract_step_classes_total", step_classes);
    shard.add("ced_extract_classifications_total", classifications);
    for (const double s : compaction_seconds) {
      shard.observe("ced_extract_compaction_seconds", s);
    }
    for (const double s : degrade_seconds) {
      shard.observe("ced_extract_degrade_seconds", s);
    }
  }
};

/// Compacts `set` to its subset-minimal cases on `threads` workers,
/// counting and timing the pass.
void compact(CaseSet& set, CaseCounters& counters, int threads) {
  const auto t0 = std::chrono::steady_clock::now();
  counters.compacted(compact(set, counters.subset_probes, threads), t0);
}

/// Strengthens a case to its `k` smallest difference words (sound: it
/// only removes detection alternatives) by zeroing the words after them.
ErroneousCase strengthen(ErroneousCase ec, int k) {
  std::fill(ec.diff.begin() + k, ec.diff.end(), 0);
  return ec;
}

bool any_truncated(const std::vector<DetectabilityTable>& tables) {
  return std::any_of(tables.begin(), tables.end(),
                     [](const DetectabilityTable& t) { return t.truncated; });
}

/// One extraction shard: walks its block of the fault list with a private
/// cone-restricted FaultyCache per fault and private per-latency case sets,
/// reading golden rows through a GoldenView over the shared golden trace.
/// Its budget valves are private too: a tripped valve freezes only this
/// shard's tables, so they are a pure function of (circuit, fault block,
/// options, shard count), never of timing or of the other shards.
class ShardWorker {
 public:
  ShardWorker(const fsm::FsmCircuit& circuit, const ExtractOptions& opts,
              const sim::GoldenTrace& trace,
              std::span<const std::uint64_t> activation_codes, int num_shards)
      : circuit_(circuit), opts_(opts), trace_(trace), golden_(trace),
        activation_codes_(activation_codes),
        tables_(static_cast<std::size_t>(opts.latency)),
        sets_(static_cast<std::size_t>(opts.latency)),
        compact_threshold_(static_cast<std::size_t>(opts.latency),
                           kCompactStart),
        max_words_(static_cast<std::size_t>(opts.latency), kMaxLatency),
        // Per-shard share of the degradation threshold so K shards
        // together hold at most ~degrade_threshold live cases. A single
        // shard keeps the whole threshold. The share depends on the shard
        // count, so whether (and how far) a large table is strengthened
        // does too; without a store that count is the thread count.
        degrade_threshold_(
            num_shards <= 1
                ? opts.degrade_threshold
                : std::max<std::size_t>(
                      opts.degrade_threshold /
                          static_cast<std::size_t>(num_shards),
                      1024)) {}

  void run(std::span<const sim::StuckAtFault> faults) {
    for (const auto& f : faults) {
      if (stopped_) break;
      sim::FaultyCache faulty(trace_, f.injection());
      memo_.clear();
      bool detectable = false;
      for (std::uint64_t c : activation_codes_) {
        if (stopped_) break;
        check_deadline();
        // Fault dormant in every input here: no class is an activation.
        if (faulty.row(c) == nullptr) continue;
        for (const StepClass& cls : classes_of(faulty, Pair{c, c})) {
          if (cls.diff == 0) continue;  // fault dormant: not an activation
          detectable = true;
          for (auto& t : tables_) ++t.num_activations;
          diffs_[0] = cls.diff;
          record(canonicalize(diffs_.data(), 1), 1);
          // The path's states are those reached by erroneous transitions
          // ("starting from the first erroneous state", §2): h1, h2, ...
          // The activation state c is not part of the loop-detection set.
          path_states_[0] = cls.next;
          descend(faulty, cls.next, 1);
        }
      }
      if (detectable) {
        for (auto& t : tables_) ++t.num_detectable_faults;
      }
      sim_counters_ += faulty.counters();
    }
  }

  const sim::SimCounters& sim_counters() const { return sim_counters_; }
  const CaseCounters& counters() const { return counters_; }
  bool truncated() const { return any_truncated(tables_); }

  /// Moves the shard's per-latency sets out, indexed and in insertion
  /// order, leaving empty sets in their place: take_tables then hands over
  /// no cases.
  std::vector<CaseSet> take_sets() {
    std::vector<CaseSet> sets(sets_.size());
    sets.swap(sets_);
    return sets;
  }

  /// Hands over the shard's per-latency tables: local statistics,
  /// truncation state and the cases of its sets, compacted and sorted
  /// first if `persisted` (a checkpoint keeps canonical bytes; the merge
  /// canonicalizes every other shard). The worker holds no cases
  /// afterwards.
  std::vector<DetectabilityTable> take_tables(bool persisted) {
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      if (persisted) compact(sets_[t], counters_, opts_.threads);
      tables_[t].cases = sets_[t].release();
      if (persisted) {
        std::sort(tables_[t].cases.begin(), tables_[t].cases.end(),
                  case_less);
      }
    }
    return std::move(tables_);
  }

 private:
  /// A frozen table (its `truncated` flag set) accepts no further cases;
  /// the shard keeps the rows found so far.
  bool frozen(std::size_t t) const { return tables_[t].truncated; }

  /// Freezes table t (the first reason wins) and stops the shard once
  /// every table is frozen.
  void freeze(std::size_t t, const std::string& reason) {
    if (!frozen(t)) {
      tables_[t].truncated = true;
      tables_[t].truncation_reason = reason;
    }
    stopped_ = std::all_of(tables_.begin(), tables_.end(),
                           [](const DetectabilityTable& x) {
                             return x.truncated;
                           });
  }

  /// The sorted step classes of `pair` under the current fault:
  /// classified at the pair's first visit in the fault, read from the memo
  /// at every later one. The list stays put while the walk adds pairs.
  const std::vector<StepClass>& classes_of(sim::FaultyCache& faulty,
                                           const Pair& pair) {
    auto [it, fresh] = memo_.try_emplace(pair);
    std::vector<StepClass>& classes = it->second;
    if (fresh) {
      const std::vector<std::uint64_t>* bad = faulty.row(pair.bad);
      classifier_.classify(golden_.rows(pair.good),
                           bad != nullptr ? *bad : golden_.rows(pair.bad),
                           circuit_, opts_.semantics, classes);
      ++counters_.classifications;
    }
    counters_.step_classes += classes.size();
    return classes;
  }

  /// Extends the current path from `pair` at step index `depth`
  /// (diffs_[0..depth-1] and path_states_[0..depth-1] are filled).
  void descend(sim::FaultyCache& faulty, const Pair& pair, int depth) {
    if (depth == opts_.latency || stopped_) return;
    if ((++tick_ & 1023u) == 0) check_deadline();
    for (const StepClass& cls : classes_of(faulty, pair)) {
      if (stopped_) return;
      diffs_[static_cast<std::size_t>(depth)] = cls.diff;
      // One canonical form of the prefix for the record, the loop insert
      // and the subtree prune.
      const ErroneousCase ec = canonicalize(diffs_.data(), depth + 1);
      record(ec, depth + 1);
      bool loop = false;
      for (int i = 0; i < depth; ++i) {
        if (path_states_[static_cast<std::size_t>(i)] == cls.next) {
          loop = true;
          break;
        }
      }
      if (loop) {
        // The pair repeats: longer bounds gain no further alternatives
        // along this path; the truncated case is their requirement too.
        for (auto& t : tables_) ++t.num_loop_truncations;
        for (int p = depth + 2; p <= opts_.latency; ++p) {
          ++tables_[static_cast<std::size_t>(p - 1)].num_paths;
          insert(ec, p);
        }
      } else if (!extensions_redundant(ec, depth + 1)) {
        path_states_[static_cast<std::size_t>(depth)] = cls.next;
        descend(faulty, cls.next, depth + 1);
      }
    }
  }

  /// Subtree prune: extensions of the current prefix (of length `len`)
  /// would be recorded into tables len+1..p, each as a superset of the
  /// prefix's word set. If every one of those tables already requires the
  /// prefix set itself or a subset of it, all extensions are dominated rows
  /// there and the subtree contributes nothing. (Workers only see their own
  /// cases, so this prunes less under sharding — the pruned rows are
  /// dominated ones, which the deterministic merge compacts away anyway.)
  bool extensions_redundant(const ErroneousCase& prefix, int len) {
    if (len + 1 > opts_.latency) return false;  // no extensions anyway
    for (int t = len + 1; t <= opts_.latency; ++t) {
      const auto& set = sets_[static_cast<std::size_t>(t - 1)];
      ++counters_.subset_probes;
      if (!set.contains(prefix) &&
          !dominated(prefix, set, counters_.subset_probes)) {
        return false;
      }
    }
    return true;
  }

  /// Records the current path prefix, of length `len` and canonical form
  /// `ec`, as a complete case of the latency-`len` table.
  void record(const ErroneousCase& ec, int len) {
    ++tables_[static_cast<std::size_t>(len - 1)].num_paths;
    insert(ec, len);
  }

  /// Cooperative wall-clock check: on expiry, every still-open table of
  /// the shard is frozen with its partial contents and the DFS unwinds.
  void check_deadline() {
    if (stopped_ || !opts_.deadline.armed() || !opts_.deadline.expired()) {
      return;
    }
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      freeze(t, "wall-clock budget exhausted during extraction");
    }
  }

  /// Cases held in the shard's sets, over every table.
  std::size_t live_cases() const {
    std::size_t n = 0;
    for (const CaseSet& set : sets_) n += set.size();
    return n;
  }

  void insert(ErroneousCase ec, int latency) {
    const auto t = static_cast<std::size_t>(latency - 1);
    if (frozen(t)) return;
    auto& set = sets_[t];
    const bool cut = ec.length() > max_words_[t];
    ec = strengthen(ec, max_words_[t]);
    if (dominated(ec, set, counters_.subset_probes)) {
      ++counters_.cases_dominated;
      return;
    }
    if (!set.insert(ec)) return;
    ++counters_.case_inserts;
    if (cut) tables_[t].strengthened = true;
    auto& threshold = compact_threshold_[t];
    if (set.size() > threshold) {
      compact(set, counters_, opts_.threads);
      threshold = std::max<std::size_t>(2 * set.size(), kCompactStart);
    }
    while (set.size() > degrade_threshold_ && max_words_[t] > 1) {
      // Degrade: strengthen every case of this table to fewer words and
      // rebuild the subset-minimal antichain. The table is flagged only
      // when a case loses a word: the first step at p < kMaxLatency
      // shortens none.
      const auto t0 = std::chrono::steady_clock::now();
      const int words = --max_words_[t];
      set.transform([&](const ErroneousCase& c) {
        if (c.length() > words) tables_[t].strengthened = true;
        return strengthen(c, words);
      });
      compact(set, counters_, opts_.threads);
      threshold = std::max<std::size_t>(2 * set.size(), kCompactStart);
      counters_.degrade_seconds.push_back(seconds_since(t0));
    }
    if (live_cases() > opts_.max_cases) {
      // Recoverable truncation (the old behaviour threw here): compact this
      // set first; if the shard still holds too many cases, keep the
      // subset-minimal cases found so far and freeze the table.
      compact(set, counters_, opts_.threads);
      if (live_cases() > opts_.max_cases) {
        freeze(t, "erroneous-case limit (" + std::to_string(opts_.max_cases) +
                      ") exceeded; table holds the cases found so far");
      }
    }
  }

  static constexpr std::size_t kCompactStart = 1u << 17;

  const fsm::FsmCircuit& circuit_;
  const ExtractOptions& opts_;
  const sim::GoldenTrace& trace_;
  sim::GoldenView golden_;
  StepClassifier classifier_;
  /// Per fault: each visited pair's sorted step classes.
  std::unordered_map<Pair, std::vector<StepClass>, PairHash> memo_;
  sim::SimCounters sim_counters_;
  CaseCounters counters_;
  std::span<const std::uint64_t> activation_codes_;
  std::vector<DetectabilityTable> tables_;  ///< statistics and truncation
  std::vector<CaseSet> sets_;
  std::vector<std::size_t> compact_threshold_;
  std::vector<int> max_words_;
  const std::size_t degrade_threshold_;
  bool stopped_ = false;  ///< every table frozen
  std::uint32_t tick_ = 0;
  std::array<std::uint64_t, kMaxLatency> diffs_{};
  std::array<Pair, kMaxLatency + 1> path_states_{};
};

/// Rejects a latency outside 1..kMaxLatency and more than 64 observable
/// bits.
void check_options(const fsm::FsmCircuit& circuit, const ExtractOptions& opts) {
  if (opts.latency < 1 || opts.latency > kMaxLatency) {
    throw std::invalid_argument("extract_cases: latency out of range");
  }
  if (circuit.n() > 64) {
    throw std::invalid_argument("extract_cases: more than 64 observable bits");
  }
}

/// The fixed-order merge of extraction. `parts` holds the present shards
/// in shard order; the table for bound p receives the union of the parts'
/// cases, compacted to the subset-minimal antichain and sorted, their
/// summed statistics and the first truncation reason. `first_sets`, when
/// not empty, holds the first part's cases, one indexed set per bound in
/// the order its worker inserted them (its tables then hold none). The
/// parts' cases are consumed. This compaction is what makes every
/// returned table subset-minimal (DetectabilityTable::cases); the solvers
/// rely on it. The compaction and the sort run on opts.threads workers;
/// neither result depends on the count.
std::vector<DetectabilityTable> merge_parts(std::vector<ExtractShard>& parts,
                                            std::vector<CaseSet> first_sets,
                                            const fsm::FsmCircuit& circuit,
                                            std::size_t num_faults,
                                            const ExtractOptions& opts) {
  const obs::ScopedSpan span(opts.obs, "extract-merge");
  std::vector<DetectabilityTable> tables(
      static_cast<std::size_t>(opts.latency));
  CaseCounters counters;
  for (std::size_t t = 0; t < tables.size(); ++t) {
    DetectabilityTable& table = tables[t];
    table.num_bits = circuit.n();
    table.latency = static_cast<int>(t) + 1;
    table.num_faults = num_faults;
    // The first part's cases become the merged rows without a copy (at
    // 4 threads s1488's shard 0 holds nearly all of them), and without
    // re-hashing them when they arrive in their worker's set.
    CaseSet merged;
    if (!first_sets.empty()) {
      merged = std::move(first_sets[t]);
    } else if (!parts.empty()) {
      merged = CaseSet(std::move(parts.front().tables[t].cases));
    }
    std::size_t total = merged.size();
    for (const auto& part : parts) total += part.tables[t].cases.size();
    merged.reserve(total);
    for (auto& part : parts) {
      DetectabilityTable& lt = part.tables[t];
      for (const ErroneousCase& ec : lt.cases) merged.insert(ec);
      lt.cases = {};
      table.num_detectable_faults += lt.num_detectable_faults;
      table.num_activations += lt.num_activations;
      table.num_paths += lt.num_paths;
      table.num_loop_truncations += lt.num_loop_truncations;
      table.strengthened = table.strengthened || lt.strengthened;
      if (lt.truncated) {
        table.truncated = true;
        if (table.truncation_reason.empty()) {
          table.truncation_reason = lt.truncation_reason;
        }
      }
    }
    // Drop supersets that arrived before their subsets. The survivors
    // leave the set without an index: nothing looks them up again.
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t before = merged.size();
    std::vector<ErroneousCase> minimal = merged.release(
        minimal_rows(merged, counters.subset_probes, opts.threads));
    counters.compacted(before - minimal.size(), t0);
    // Returned tables outlive extraction: the sort's target holds exactly
    // the survivors, not the capacity the set grew to before compaction.
    table.cases = sort_cases(std::move(minimal), opts.threads);
  }
  obs::MetricsShard mshard(opts.obs.metrics);
  counters.record(mshard);
  return tables;
}

}  // namespace

std::vector<DetectabilityTable> extract_cases_multi(
    const fsm::FsmCircuit& circuit,
    std::span<const sim::StuckAtFault> faults, const ExtractOptions& opts) {
  return extract_cases_sharded(circuit, faults, opts,
                               {.num_shards = resolve_threads(opts.threads)});
}

DetectabilityTable extract_cases(const fsm::FsmCircuit& circuit,
                                 std::span<const sim::StuckAtFault> faults,
                                 const ExtractOptions& opts) {
  return std::move(extract_cases_multi(circuit, faults, opts).back());
}

// ------------------------------------------------- checkpointed extraction

int resolve_checkpoint_shards(int requested, std::size_t num_faults) {
  const int n = requested >= 1 ? requested : kDefaultCheckpointShards;
  if (num_faults == 0) return 1;
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(n), num_faults));
}

std::string extraction_digest(const fsm::FsmCircuit& circuit,
                              std::span<const sim::StuckAtFault> faults,
                              const ExtractOptions& opts, int num_shards) {
  Digest128 d;
  d.absorb(std::uint64_t{1});  // digest schema version; bump on change
  d.absorb(static_cast<std::uint64_t>(kMaxLatency));
  // Circuit: interface sizes, state encoding, and the full netlist — the
  // netlist is the reference implementation, so hashing it covers every
  // synthesis option that could change behaviour.
  d.absorb(static_cast<std::uint64_t>(circuit.r()));
  d.absorb(static_cast<std::uint64_t>(circuit.s()));
  d.absorb(static_cast<std::uint64_t>(circuit.o()));
  d.absorb(circuit.enc.reset_code);
  d.absorb(static_cast<std::uint64_t>(circuit.enc.encoding.num_bits));
  for (const std::uint64_t c : circuit.enc.encoding.codes) d.absorb(c);
  logic::absorb_netlist(d, circuit.netlist);
  // Fault model.
  d.absorb(faults.size());
  for (const auto& f : faults) {
    d.absorb((static_cast<std::uint64_t>(f.net) << 1) |
             (f.stuck_value ? 1u : 0u));
  }
  // Result-shaping extraction options + the shard partition. Budget valves
  // (deadline, max_cases) are excluded: truncated results are never cached.
  d.absorb(static_cast<std::uint64_t>(opts.latency));
  d.absorb(static_cast<std::uint64_t>(opts.semantics));
  d.absorb(std::uint64_t{opts.restrict_to_reachable ? 1u : 0u});
  d.absorb(opts.degrade_threshold);
  d.absorb(static_cast<std::uint64_t>(num_shards));
  return d.hex();
}

std::vector<DetectabilityTable> extract_cases_sharded(
    const fsm::FsmCircuit& circuit, std::span<const sim::StuckAtFault> faults,
    const ExtractOptions& opts, const ShardPlan& plan,
    const ShardHooks<ExtractShard>& hooks) {
  check_options(circuit, opts);
  const auto num_tables = static_cast<std::size_t>(opts.latency);
  const int num_shards =
      resolve_checkpoint_shards(plan.num_shards, faults.size());
  const auto bounds = shard_bounds(faults.size(), num_shards);

  ShardRun<ExtractShard> run(
      plan, num_shards, hooks, [&](std::uint32_t, const ExtractShard& sh) {
        return sh.tables.size() == num_tables && !any_truncated(sh.tables);
      });
  if (opts.obs.metrics != nullptr) {
    opts.obs.metrics->add("ced_extract_shards_resumed_total",
                          static_cast<std::uint64_t>(run.resumed()));
  }
  // Fault shard 0's sets, indexed, when this run computes it and does not
  // persist it: the merge inserts the other shards into them instead of
  // indexing its cases again. (A persisted shard's cases are compacted and
  // sorted, no longer in their set's order.)
  std::vector<CaseSet> first_sets;
  if (run.pending() > 0) {
    // The golden trace is shared read-only state across shards: every
    // activation code is simulated up front so the fan-out only reads it.
    // (Faulty walks can still reach codes outside this set; those take the
    // full pass, with golden rows from each shard's GoldenView overlay.)
    obs::ScopedSpan trace_span(opts.obs, "extract-trace");
    const sim::GoldenTrace trace =
        sim::activation_trace(circuit, opts.restrict_to_reachable);
    const std::vector<std::uint64_t>& codes = trace.codes();
    trace_span.attr("states", static_cast<std::uint64_t>(codes.size()));
    trace_span.end();
    if (opts.obs.metrics != nullptr) {
      opts.obs.metrics->set_gauge(sim::kGoldenTraceBytesGauge,
                                  static_cast<double>(trace.bytes()));
    }
    // One item per shard: a shard's faults share its worker's case sets.
    const auto one_item = [](std::uint32_t, ExtractShard&) {
      return std::size_t{1};
    };
    run.compute(opts.threads, one_item, [&](std::uint32_t s, std::size_t,
                                            ExtractShard& sh) {
      // Shard spans parent under the caller's extract-stage span via the
      // explicit parent id — no thread-local ambient state (obs/trace.hpp).
      obs::ScopedSpan span(opts.obs, "extract-shard");
      span.attr("shard", static_cast<std::uint64_t>(s));
      ShardWorker worker(circuit, opts, trace, codes, num_shards);
      const std::size_t begin = bounds[s];
      const std::size_t end = bounds[s + 1];
      span.attr("faults", static_cast<std::uint64_t>(end - begin));
      worker.run(faults.subspan(begin, end - begin));
      // Only a shard that is saved gets compacted; that removes only rows
      // the merge would remove anyway, so the antichain is the same.
      const bool complete = !worker.truncated();
      const bool persisted = complete && hooks.save;
      if (s == 0 && !persisted) first_sets = worker.take_sets();
      sh.tables = worker.take_tables(persisted);
      // The store's decoder needs each table's bit count and latency.
      for (std::size_t t = 0; t < num_tables; ++t) {
        sh.tables[t].num_bits = circuit.n();
        sh.tables[t].latency = static_cast<int>(t) + 1;
        sh.tables[t].num_faults = end - begin;
      }
      const DetectabilityTable& deep = sh.tables.back();
      span.attr("activations",
                static_cast<std::uint64_t>(deep.num_activations));
      span.attr("paths", static_cast<std::uint64_t>(deep.num_paths));
      if (opts.obs.metrics != nullptr) {
        obs::MetricsShard mshard(opts.obs.metrics);
        mshard.add("ced_extract_shards_total");
        mshard.add("ced_extract_shards_computed_total");
        worker.sim_counters().for_each(
            [&](const char* name, std::uint64_t v) { mshard.add(name, v); });
        worker.counters().record(mshard);
      }
      return complete;
    });
  }

  // Deterministic merge in fixed shard order — identical to a fresh full
  // run whenever every shard is present and complete.
  std::vector<ExtractShard> parts = run.take();
  std::vector<DetectabilityTable> tables = merge_parts(
      parts, std::move(first_sets), circuit, faults.size(), opts);
  if (run.skipped() > 0) {
    for (DetectabilityTable& table : tables) {
      table.truncated = true;
      if (table.truncation_reason.empty()) {
        table.truncation_reason =
            "checkpoint quota: " + std::to_string(run.skipped()) + " of " +
            std::to_string(num_shards) +
            " shards left for a later run; re-run with --resume to continue";
      }
    }
  }
  return tables;
}

}  // namespace ced::core
