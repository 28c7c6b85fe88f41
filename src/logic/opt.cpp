#include "logic/opt.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

namespace ced::logic {
namespace {

/// What an old net maps to in the rewritten netlist: a constant or a
/// (possibly complemented) new net.
struct Repl {
  bool is_const = false;
  bool const_val = false;
  std::uint32_t net = 0;
  bool neg = false;

  static Repl constant(bool v) {
    Repl r;
    r.is_const = true;
    r.const_val = v;
    return r;
  }
  static Repl wire(std::uint32_t n, bool neg = false) {
    Repl r;
    r.net = n;
    r.neg = neg;
    return r;
  }
  Repl negated() const {
    Repl r = *this;
    if (r.is_const) {
      r.const_val = !r.const_val;
    } else {
      r.neg = !r.neg;
    }
    return r;
  }
};

/// Structural-hash key of a gate: its type and (sorted) fan-ins.
using GateKey = std::pair<GateType, std::vector<std::uint32_t>>;

struct GateKeyHash {
  std::size_t operator()(const GateKey& k) const {
    std::uint64_t h = static_cast<std::uint64_t>(k.first);
    for (const std::uint32_t f : k.second) {
      h = (h ^ f) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

class Rewriter {
 public:
  Rewriter(const Netlist& src, OptimizeStats* stats)
      : src_(src), stats_(stats) {}

  Netlist run() {
    mark_live();
    repl_.resize(src_.num_nets());
    std::size_t next_input = 0;
    for (std::uint32_t id = 0; id < src_.num_nets(); ++id) {
      const Gate& g = src_.gate(id);
      if (g.type == GateType::kInput) {
        // Inputs are always kept so the interface stays stable.
        repl_[id] = Repl::wire(out_.add_input(src_.input_name(next_input)));
        ++next_input;
        continue;
      }
      if (!live_[id]) {
        bump(stats_ ? &stats_->swept : nullptr);
        continue;
      }
      repl_[id] = rewrite(g);
    }
    for (std::size_t o = 0; o < src_.num_outputs(); ++o) {
      out_.mark_output(materialize(repl_[src_.outputs()[o]]),
                       src_.output_name(o));
    }
    if (stats_) {
      stats_->gates_before = src_.gate_count();
      stats_->gates_after = out_.gate_count();
    }
    return std::move(out_);
  }

 private:
  static void bump(std::size_t* counter) {
    if (counter) ++*counter;
  }

  void mark_live() {
    live_.assign(src_.num_nets(), false);
    std::vector<std::uint32_t> stack(src_.outputs());
    for (auto o : stack) live_[o] = true;
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      for (auto f : src_.gate(id).fanins) {
        if (!live_[f]) {
          live_[f] = true;
          stack.push_back(f);
        }
      }
    }
  }

  /// Returns the new net carrying a Repl's value, creating constants and
  /// shared inverters as needed.
  std::uint32_t materialize(const Repl& r) {
    if (r.is_const) {
      int& c = const_net_[r.const_val ? 1 : 0];
      if (c < 0) c = static_cast<int>(out_.add_const(r.const_val));
      return static_cast<std::uint32_t>(c);
    }
    if (!r.neg) return r.net;
    return strash(GateType::kNot, {r.net});
  }

  /// Creates (or reuses) a gate via structural hashing.
  std::uint32_t strash(GateType type, std::vector<std::uint32_t> fanins) {
    if (type != GateType::kNot) {
      std::sort(fanins.begin(), fanins.end());
    }
    const auto key = std::make_pair(type, fanins);
    auto it = strash_.find(key);
    if (it != strash_.end()) {
      bump(stats_ ? &stats_->merged : nullptr);
      return it->second;
    }
    const std::uint32_t id = out_.add_gate(type, std::move(fanins));
    strash_.emplace(key, id);
    return id;
  }

  Repl rewrite(const Gate& g) {
    switch (g.type) {
      case GateType::kConst0:
        return Repl::constant(false);
      case GateType::kConst1:
        return Repl::constant(true);
      case GateType::kBuf:
        bump(stats_ ? &stats_->folded : nullptr);
        return repl_[g.fanins[0]];
      case GateType::kNot:
        bump(stats_ ? &stats_->folded : nullptr);
        return repl_[g.fanins[0]].negated();
      case GateType::kAnd:
      case GateType::kNand:
        return rewrite_andor(g, /*is_and=*/true,
                             g.type == GateType::kNand);
      case GateType::kOr:
      case GateType::kNor:
        return rewrite_andor(g, /*is_and=*/false, g.type == GateType::kNor);
      case GateType::kXor:
      case GateType::kXnor:
        return rewrite_xor(g, g.type == GateType::kXnor);
      default:
        break;
    }
    // Unreachable (inputs handled by the caller).
    return Repl::constant(false);
  }

  Repl rewrite_andor(const Gate& g, bool is_and, bool negate_out) {
    // Collect literal fan-ins; fold constants and duplicates.
    std::vector<std::pair<std::uint32_t, bool>> lits;  // (net, neg)
    for (auto f : g.fanins) {
      const Repl& r = repl_[f];
      if (r.is_const) {
        if (r.const_val == is_and) continue;  // identity element
        // Dominating constant.
        bump(stats_ ? &stats_->folded : nullptr);
        return Repl::constant(negate_out ? is_and : !is_and);
      }
      lits.emplace_back(r.net, r.neg);
    }
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    // x AND NOT x = 0; x OR NOT x = 1.
    for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
      if (lits[i].first == lits[i + 1].first &&
          lits[i].second != lits[i + 1].second) {
        bump(stats_ ? &stats_->folded : nullptr);
        return Repl::constant(negate_out ? is_and : !is_and);
      }
    }
    if (lits.empty()) {
      return Repl::constant(negate_out ? !is_and : is_and);
    }
    if (lits.size() == 1) {
      bump(stats_ ? &stats_->folded : nullptr);
      Repl r = Repl::wire(lits[0].first, lits[0].second);
      return negate_out ? r.negated() : r;
    }
    std::vector<std::uint32_t> nets;
    nets.reserve(lits.size());
    for (const auto& [net, neg] : lits) {
      nets.push_back(neg ? strash(GateType::kNot, {net}) : net);
    }
    GateType type;
    if (is_and) {
      type = negate_out ? GateType::kNand : GateType::kAnd;
    } else {
      type = negate_out ? GateType::kNor : GateType::kOr;
    }
    return Repl::wire(strash(type, std::move(nets)));
  }

  Repl rewrite_xor(const Gate& g, bool negate_out) {
    bool flip = negate_out;
    // Parity of each (net) with complemented inputs folded into `flip`;
    // pairs of equal nets cancel.
    std::map<std::uint32_t, int> count;
    for (auto f : g.fanins) {
      const Repl& r = repl_[f];
      if (r.is_const) {
        flip ^= r.const_val;
        continue;
      }
      flip ^= r.neg;
      ++count[r.net];
    }
    std::vector<std::uint32_t> nets;
    for (const auto& [net, c] : count) {
      if (c & 1) nets.push_back(net);
    }
    if (nets.empty()) {
      bump(stats_ ? &stats_->folded : nullptr);
      return Repl::constant(flip);
    }
    if (nets.size() == 1) {
      bump(stats_ ? &stats_->folded : nullptr);
      return Repl::wire(nets[0], flip);
    }
    const GateType type = flip ? GateType::kXnor : GateType::kXor;
    return Repl::wire(strash(type, std::move(nets)));
  }

  const Netlist& src_;
  OptimizeStats* stats_;
  Netlist out_;
  std::vector<Repl> repl_;
  std::vector<bool> live_;
  std::unordered_map<GateKey, std::uint32_t, GateKeyHash> strash_;
  int const_net_[2] = {-1, -1};
};

}  // namespace

Netlist optimize_netlist(const Netlist& n, OptimizeStats* stats) {
  if (stats) *stats = OptimizeStats{};
  Netlist out = Rewriter(n, stats).run();
  // Folding can orphan logic whose liveness was decided before the fold;
  // iterate until the gate count stabilizes (usually one extra pass).
  for (int pass = 0; pass < 4; ++pass) {
    OptimizeStats extra;
    Netlist next = Rewriter(out, &extra).run();
    if (next.gate_count() == out.gate_count()) break;
    if (stats) {
      stats->folded += extra.folded;
      stats->merged += extra.merged;
      stats->swept += extra.swept;
      stats->gates_after = next.gate_count();
    }
    out = std::move(next);
  }
  return out;
}

}  // namespace ced::logic
