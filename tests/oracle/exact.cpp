#include "oracle/exact.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/coverkernel.hpp"
#include "logic/bitvec.hpp"

namespace ced::core {
namespace {

/// Enumerates every candidate parity function with its coverage set: walk
/// the 2^n - 1 nonzero betas in Gray-code order on the bit-sliced kernel,
/// so consecutive candidates differ in exactly one bit and the cursor
/// moves by a single column XOR per step — then sort back to ascending
/// beta, the candidate order dominance pruning and branch and bound use.
void enumerate_candidates(const DetectabilityTable& table,
                          std::vector<ParityFunc>& candidates,
                          std::vector<logic::BitVec>& cover_sets) {
  const int n = table.num_bits;
  const std::size_t m = table.cases.size();
  const std::uint64_t num_candidates = (std::uint64_t{1} << n) - 1;

  const CoverKernel kernel(table);
  BetaCursor cur(kernel, 0);
  std::vector<std::uint64_t> covered(kernel.num_words());
  std::vector<std::pair<ParityFunc, logic::BitVec>> found;
  std::uint64_t prev_gray = 0;
  for (std::uint64_t i = 1; i <= num_candidates; ++i) {
    const std::uint64_t gray = i ^ (i >> 1);
    cur.flip(std::countr_zero(gray ^ prev_gray));
    prev_gray = gray;
    std::fill(covered.begin(), covered.end(), 0);
    cur.or_covered_into(covered.data());
    logic::BitVec cov(m);
    bool any = false;
    for (std::size_t w = 0; w < covered.size(); ++w) {
      std::uint64_t bits = covered[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        cov.set((w << 6) + static_cast<std::size_t>(b));
        any = true;
      }
    }
    if (any) found.emplace_back(cur.beta(), std::move(cov));
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  candidates.reserve(found.size());
  cover_sets.reserve(found.size());
  for (auto& [beta, cov] : found) {
    candidates.push_back(beta);
    cover_sets.push_back(std::move(cov));
  }
}

/// Branch-and-bound minimum cover over precomputed candidate coverage sets.
class Bnb {
 public:
  Bnb(const std::vector<logic::BitVec>& cover_sets, std::size_t num_cases,
      const ExactOptions& opts)
      : cover_sets_(cover_sets), num_cases_(num_cases), opts_(opts) {}

  std::optional<std::vector<std::size_t>> solve(std::size_t upper_bound) {
    best_size_ = upper_bound + 1;
    logic::BitVec covered(num_cases_);
    std::vector<std::size_t> chosen;
    aborted_ = false;
    recurse(covered, chosen);
    // Optimality can only be certified when the search ran to completion.
    if (aborted_ || best_.empty()) return std::nullopt;
    return best_;
  }

  std::size_t nodes() const { return nodes_; }
  bool node_budget_hit() const { return node_budget_hit_; }
  bool deadline_hit() const { return deadline_hit_; }

 private:
  void recurse(logic::BitVec& covered, std::vector<std::size_t>& chosen) {
    if (aborted_) return;
    if (++nodes_ > opts_.max_nodes) {
      node_budget_hit_ = true;
      aborted_ = true;
      return;
    }
    if ((nodes_ & 4095u) == 0 && opts_.deadline.expired()) {
      deadline_hit_ = true;
      aborted_ = true;
      return;
    }
    // First uncovered case.
    std::size_t row = num_cases_;
    for (std::size_t i = 0; i < num_cases_; ++i) {
      if (!covered.test(i)) {
        row = i;
        break;
      }
    }
    if (row == num_cases_) {
      if (chosen.size() < best_size_) {
        best_size_ = chosen.size();
        best_ = chosen;
      }
      return;
    }
    if (chosen.size() + 1 >= best_size_) return;

    // Branch on every candidate covering that case.
    for (std::size_t c = 0; c < cover_sets_.size(); ++c) {
      if (!cover_sets_[c].test(row)) continue;
      logic::BitVec saved = covered;
      covered |= cover_sets_[c];
      chosen.push_back(c);
      recurse(covered, chosen);
      chosen.pop_back();
      covered = std::move(saved);
      if (aborted_) return;
    }
  }

  const std::vector<logic::BitVec>& cover_sets_;
  std::size_t num_cases_;
  const ExactOptions& opts_;
  std::size_t nodes_ = 0;
  std::size_t best_size_ = 0;
  std::vector<std::size_t> best_;
  bool aborted_ = false;
  bool node_budget_hit_ = false;
  bool deadline_hit_ = false;
};

}  // namespace

std::optional<std::vector<ParityFunc>> exact_min_cover(
    const DetectabilityTable& table, const ExactOptions& opts,
    ExactOutcome* outcome) {
  if (outcome) *outcome = {};
  const int n = table.num_bits;
  if (n > opts.max_bits) {
    if (outcome) outcome->too_large = true;
    return std::nullopt;
  }
  const std::size_t m = table.cases.size();
  if (m == 0) return std::vector<ParityFunc>{};
  if (opts.deadline.expired()) {
    if (outcome) outcome->deadline_hit = true;
    return std::nullopt;
  }

  // Enumerate all candidate parity functions with their coverage sets
  // (Gray-code walk on the bit-sliced kernel).
  std::vector<ParityFunc> candidates;
  std::vector<logic::BitVec> cover_sets;
  enumerate_candidates(table, candidates, cover_sets);

  // Dominance pruning: drop candidates whose coverage is a subset of
  // another candidate's (keep the first of equals).
  std::vector<bool> dominated(candidates.size(), false);
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    if (dominated[a]) continue;
    for (std::size_t b = 0; b < candidates.size(); ++b) {
      if (a == b || dominated[b]) continue;
      if (!cover_sets[b].is_subset_of(cover_sets[a])) continue;
      // Equal sets: keep the lower-index candidate only.
      if (cover_sets[a] == cover_sets[b] && a > b) continue;
      dominated[b] = true;
    }
  }
  std::vector<ParityFunc> cand2;
  std::vector<logic::BitVec> cov2;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!dominated[i]) {
      cand2.push_back(candidates[i]);
      cov2.push_back(std::move(cover_sets[i]));
    }
  }

  // Upper bound: simple greedy over the candidate sets.
  std::vector<std::size_t> greedy_sel;
  {
    logic::BitVec covered(m);
    while (covered.count() < m) {
      std::size_t best = cov2.size();
      std::size_t best_gain = 0;
      for (std::size_t c = 0; c < cov2.size(); ++c) {
        logic::BitVec gain = cov2[c];
        gain.subtract(covered);
        const std::size_t g = gain.count();
        if (g > best_gain) {
          best_gain = g;
          best = c;
        }
      }
      if (best == cov2.size()) {  // uncoverable case
        if (outcome) outcome->uncoverable = true;
        return std::nullopt;
      }
      covered |= cov2[best];
      greedy_sel.push_back(best);
    }
  }

  Bnb bnb(cov2, m, opts);
  const auto sel = bnb.solve(greedy_sel.size());
  if (outcome) {
    outcome->nodes = bnb.nodes();
    outcome->node_budget_hit = bnb.node_budget_hit();
    outcome->deadline_hit = bnb.deadline_hit();
  }
  if (!sel) return std::nullopt;
  std::vector<ParityFunc> out;
  out.reserve(sel->size());
  for (std::size_t c : *sel) out.push_back(cand2[c]);
  return out;
}

}  // namespace ced::core
