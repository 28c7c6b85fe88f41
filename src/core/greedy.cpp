#include "core/greedy.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/coverkernel.hpp"
#include "core/rng.hpp"

namespace ced::core {
namespace {

/// Hill-climbs `beta` over single-bit flips to maximize coverage of the
/// kernel's rows; returns the final beta and its coverage. Deterministic
/// given the start point. All n flip-neighbors are probed in one blocked
/// sweep; after an accepted flip the remaining candidates are re-probed
/// against the new beta, so the climb visits the same sequence of betas as
/// a flip/count/flip-back loop over j.
std::pair<ParityFunc, std::size_t> climb(ParityFunc beta, int n,
                                         const CoverKernel& kernel) {
  BetaCursor cur(kernel, beta);
  std::size_t best = cur.covered_count();
  std::vector<std::size_t> counts(static_cast<std::size_t>(n));
  bool improved = true;
  while (improved) {
    improved = false;
    cur.neighbor_counts(counts);
    for (int j = 0; j < n; ++j) {
      if ((cur.beta() ^ (std::uint64_t{1} << j)) == 0) continue;
      if (counts[static_cast<std::size_t>(j)] > best) {
        cur.flip(j);
        best = counts[static_cast<std::size_t>(j)];
        improved = true;
        if (j + 1 < n) cur.neighbor_counts(counts);
      }
    }
  }
  return {cur.beta(), best};
}

/// Covers every case index in `pending` (a subset of the table) by
/// repeatedly appending the best hill-climbed parity function.
void cover_subset(const DetectabilityTable& table, const GreedyOptions& opts,
                  std::vector<std::uint32_t> pending, Rng& rng,
                  std::vector<ParityFunc>& solution, std::uint64_t& climbs) {
  const int n = table.num_bits;
  const std::uint64_t mask =
      n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  while (!pending.empty()) {
    if (opts.deadline.expired()) return;  // caller closes out the remainder
    // The pending set shrinks every round, so a fresh subset kernel per
    // round stays proportional to the remaining work.
    const CoverKernel sub(table, pending);
    ParityFunc best_beta = 0;
    std::size_t best_cov = 0;

    auto consider = [&](ParityFunc start) {
      ++climbs;
      const auto [b, c] = climb(start & mask, n, sub);
      if (b == 0) return;
      if (c > best_cov) {
        best_cov = c;
        best_beta = b;
      }
    };

    for (int j = 0; j < n; ++j) consider(std::uint64_t{1} << j);
    consider(mask);
    for (int t = 0; t < opts.restarts; ++t) consider(rng.next() & mask);

    if (best_cov == 0) {
      // Should be impossible: every case has a nonzero diff word at some
      // step, and a single-bit function on a set bit of that word covers it.
      // Guard against surprises to avoid an infinite loop.
      const ErroneousCase& ec = table.cases[pending.front()];
      for (int k = 0; k < ec.length; ++k) {
        if (ec.diff[static_cast<std::size_t>(k)] != 0) {
          best_beta = ec.diff[static_cast<std::size_t>(k)] &
                      (~ec.diff[static_cast<std::size_t>(k)] + 1);
          break;
        }
      }
      best_cov = sub.coverage_count(best_beta);
    }

    solution.push_back(best_beta);
    std::vector<std::uint32_t> still;
    still.reserve(pending.size() - best_cov);
    std::vector<std::uint64_t> cov(sub.num_words());
    sub.covered_bitmap(best_beta, cov.data());
    for (std::size_t r = 0; r < pending.size(); ++r) {
      if (!((cov[r >> 6] >> (r & 63)) & 1u)) still.push_back(pending[r]);
    }
    pending = std::move(still);
  }
}

std::vector<ParityFunc> greedy_cover_impl(const DetectabilityTable& table,
                                          const GreedyOptions& opts,
                                          GreedyStats* stats,
                                          const CoverKernel* full_kernel) {
  Rng rng(opts.seed);
  std::vector<ParityFunc> solution;
  std::optional<CoverKernel> own_kernel;
  if (full_kernel == nullptr) own_kernel.emplace(table);
  const CoverKernel& full = full_kernel != nullptr ? *full_kernel : *own_kernel;

  // Work on samples of the uncovered set; re-verify against the full table
  // between rounds. Each round strictly shrinks the uncovered set, so this
  // terminates with a complete cover.
  std::vector<std::uint32_t> pending(table.cases.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    pending[i] = static_cast<std::uint32_t>(i);
  }
  while (!pending.empty()) {
    if (opts.deadline.expired()) {
      // Budget exhausted: close out the remaining cases instantly with one
      // single-bit function per needed bit (the lowest set bit of a case's
      // first nonzero word always gives odd overlap), keeping the cover
      // complete without further search.
      if (stats) stats->deadline_hit = true;
      std::uint64_t used = 0;
      for (std::uint32_t i : pending) {
        const ErroneousCase& ec = table.cases[i];
        for (int k = 0; k < ec.length; ++k) {
          const std::uint64_t w = ec.diff[static_cast<std::size_t>(k)];
          if (w == 0) continue;
          const ParityFunc beta = w & (~w + 1);
          if (!(used & beta)) {
            used |= beta;
            solution.push_back(beta);
            if (stats) ++stats->single_bit_completions;
          }
          break;
        }
      }
      return solution;
    }
    std::vector<std::uint32_t> sample;
    if (pending.size() <= opts.sample_cap) {
      sample = pending;
    } else {
      // Deterministic stride-based sample spread over the uncovered set.
      sample.reserve(opts.sample_cap);
      const std::size_t stride = pending.size() / opts.sample_cap;
      const std::size_t offset = rng.next() % stride;
      for (std::size_t i = offset; i < pending.size() && sample.size() < opts.sample_cap;
           i += stride) {
        sample.push_back(pending[i]);
      }
    }
    cover_subset(table, opts, std::move(sample), rng, solution,
                 stats->climbs);
    pending = full.uncovered(solution);
  }

  return prune_redundant(solution, table, &full);
}

}  // namespace

std::vector<ParityFunc> greedy_cover(const DetectabilityTable& table,
                                     const GreedyOptions& opts,
                                     GreedyStats* stats,
                                     const CoverKernel* full_kernel) {
  GreedyStats local;
  GreedyStats* st = stats != nullptr ? stats : &local;
  if (!opts.obs.enabled()) {
    return greedy_cover_impl(table, opts, st, full_kernel);
  }
  // Observability wrapper, outside the search: the chosen functions are
  // byte-identical with sinks set or null.
  obs::ScopedSpan span(opts.obs, "greedy");
  auto sol = greedy_cover_impl(table, opts, st, full_kernel);
  span.attr("functions", static_cast<std::uint64_t>(sol.size()));
  span.attr("climbs", st->climbs);
  if (st->deadline_hit) {
    span.attr("single_bit_completions",
              static_cast<std::uint64_t>(st->single_bit_completions));
  }
  if (opts.obs.metrics != nullptr) {
    obs::MetricsShard shard(opts.obs.metrics);
    shard.add("ced_greedy_covers_total");
    shard.add("ced_greedy_climbs_total", st->climbs);
    shard.add("ced_greedy_single_bit_completions_total",
              static_cast<std::uint64_t>(st->single_bit_completions));
  }
  return sol;
}

}  // namespace ced::core
