#include "sim/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>

namespace ced::sim {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Writes the packed observable words of one evaluated batch into `row`:
/// row o of the block is output o's pattern word, so transposed, row t is
/// the observable word of input batch * 64 + t.
void store_batch_row(const logic::Netlist& nl, int n,
                     const std::vector<std::uint64_t>& values,
                     std::uint64_t batch, std::vector<std::uint64_t>& row) {
  std::array<std::uint64_t, 64> block{};
  for (int o = 0; o < n; ++o) {
    block[static_cast<std::size_t>(o)] =
        values[nl.outputs()[static_cast<std::size_t>(o)]];
  }
  transpose64(block);
  const std::uint64_t base = batch * 64;
  std::copy_n(block.begin(), std::min<std::uint64_t>(64, row.size() - base),
              row.begin() + static_cast<std::ptrdiff_t>(base));
}

/// out[b] = op-fold of in[0][b] .. in[k-1][b], XORed with `invert`, for b
/// in [lo, hi).
template <typename Op>
void fold_words(const std::uint64_t* const* in, std::size_t k,
                std::uint64_t invert, std::uint64_t* out, std::size_t lo,
                std::size_t hi, Op op) {
  for (std::size_t b = lo; b < hi; ++b) {
    std::uint64_t acc = in[0][b];
    for (std::size_t j = 1; j < k; ++j) acc = op(acc, in[j][b]);
    out[b] = acc ^ invert;
  }
}

/// out[b] for b in [lo, hi): the word logic::gate_word gives for a gate
/// of `type` (a logic gate, not an input or constant) whose k >= 1 fan-ins
/// carry in[0][b] .. in[k-1][b].
void gate_words(logic::GateType type, const std::uint64_t* const* in,
                std::size_t k, std::uint64_t* out, std::size_t lo,
                std::size_t hi) {
  using logic::GateType;
  constexpr std::uint64_t kOnes = ~std::uint64_t{0};
  const auto all = [](std::uint64_t a, std::uint64_t b) { return a & b; };
  const auto any = [](std::uint64_t a, std::uint64_t b) { return a | b; };
  const auto odd = [](std::uint64_t a, std::uint64_t b) { return a ^ b; };
  switch (type) {
    case GateType::kAnd: return fold_words(in, k, 0, out, lo, hi, all);
    case GateType::kNand: return fold_words(in, k, kOnes, out, lo, hi, all);
    case GateType::kOr: return fold_words(in, k, 0, out, lo, hi, any);
    case GateType::kNor: return fold_words(in, k, kOnes, out, lo, hi, any);
    case GateType::kXor: return fold_words(in, k, 0, out, lo, hi, odd);
    case GateType::kXnor: return fold_words(in, k, kOnes, out, lo, hi, odd);
    case GateType::kBuf: return fold_words(in, 1, 0, out, lo, hi, odd);
    case GateType::kNot: return fold_words(in, 1, kOnes, out, lo, hi, odd);
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      break;
  }
}

/// One net's distinct value vectors (`width` words each) with an
/// open-addressing table over them; ids are dense in first-seen order.
struct InternPool {
  std::vector<std::uint64_t> words;
  std::vector<std::uint32_t> slots;  ///< id + 1, 0 = empty
  std::uint32_t count = 0;

  std::uint32_t intern(const std::uint64_t* v, std::size_t width) {
    if (2 * (count + 1) > slots.size()) grow(width);
    const std::size_t mask = slots.size() - 1;
    for (std::size_t h = hash(v, width) & mask;; h = (h + 1) & mask) {
      const std::uint32_t s = slots[h];
      if (s == 0) {
        slots[h] = ++count;
        words.insert(words.end(), v, v + width);
        return count - 1;
      }
      if (std::equal(v, v + width, words.data() + (s - 1) * width)) {
        return s - 1;
      }
    }
  }

 private:
  static std::size_t hash(const std::uint64_t* v, std::size_t width) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < width; ++i) h = mix(h ^ v[i]);
    return static_cast<std::size_t>(h);
  }

  void grow(std::size_t width) {
    slots.assign(std::max<std::size_t>(8, 2 * slots.size()), 0);
    const std::size_t mask = slots.size() - 1;
    for (std::uint32_t id = 0; id < count; ++id) {
      std::size_t h = hash(words.data() + id * width, width) & mask;
      while (slots[h] != 0) h = (h + 1) & mask;
      slots[h] = id + 1;
    }
  }
};

}  // namespace

void batch_input_words(int r, int s, std::uint64_t state_code,
                       std::uint64_t batch, std::span<std::uint64_t> words) {
  static constexpr std::uint64_t kStripe[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const std::uint64_t base = batch * 64;
  for (int i = 0; i < r; ++i) {
    words[static_cast<std::size_t>(i)] =
        i < 6 ? kStripe[i] : (((base >> i) & 1) ? ~std::uint64_t{0} : 0);
  }
  for (int b = 0; b < s; ++b) {
    words[static_cast<std::size_t>(r + b)] =
        ((state_code >> b) & 1) ? ~std::uint64_t{0} : 0;
  }
}

void transpose64(std::array<std::uint64_t, 64>& m) {
  // Recursive block swap: at width j, the top-right j x j block of every
  // 2j x 2j tile trades places with the bottom-left one.
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const auto lo = static_cast<std::size_t>(k);
      const auto hi = static_cast<std::size_t>(k + j);
      const std::uint64_t t = ((m[lo] >> j) ^ m[hi]) & mask;
      m[lo] ^= t << j;
      m[hi] ^= t;
    }
  }
}

std::vector<std::uint64_t> simulate_all_inputs(
    const fsm::FsmCircuit& c, std::uint64_t state_code,
    const logic::Injection* injection) {
  const std::uint64_t num_inputs = std::uint64_t{1} << c.r();
  std::vector<std::uint64_t> result(num_inputs, 0);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(c.r() + c.s()));
  std::vector<std::uint64_t> values;
  const std::uint64_t batch_count = (num_inputs + 63) / 64;
  for (std::uint64_t batch = 0; batch < batch_count; ++batch) {
    batch_input_words(c.r(), c.s(), state_code, batch, words);
    c.netlist.eval(words, values, injection);
    store_batch_row(c.netlist, c.n(), values, batch, result);
  }
  return result;
}

const std::vector<std::uint64_t>& GoldenCache::rows(std::uint64_t state_code) {
  auto it = cache_.find(state_code);
  if (it == cache_.end()) {
    it = cache_.emplace(state_code, simulate_all_inputs(circuit_, state_code))
             .first;
  }
  return it->second;
}

std::vector<std::uint64_t> GoldenCache::reachable(std::uint64_t reset_code) {
  std::vector<std::uint64_t> order;
  std::unordered_set<std::uint64_t> seen{reset_code};
  std::vector<std::uint64_t> stack{reset_code};
  while (!stack.empty()) {
    const std::uint64_t code = stack.back();
    stack.pop_back();
    order.push_back(code);
    for (const std::uint64_t obs : rows(code)) {
      const std::uint64_t next = circuit_.next_state_of(obs);
      if (seen.insert(next).second) stack.push_back(next);
    }
  }
  std::sort(order.begin(), order.end());
  return order;
}

GoldenTrace::GoldenTrace(const fsm::FsmCircuit& c,
                         std::span<const std::uint64_t> state_codes)
    : GoldenTrace(c, state_codes, false) {}

GoldenTrace::GoldenTrace(const fsm::FsmCircuit& c, std::uint64_t reset_code)
    : GoldenTrace(c, std::span<const std::uint64_t>(&reset_code, 1), true) {}

GoldenTrace::GoldenTrace(const fsm::FsmCircuit& c,
                         std::span<const std::uint64_t> state_codes,
                         bool follow)
    : circuit_(c) {
  const logic::Netlist& nl = c.netlist;
  num_nets_ = nl.num_nets();
  const std::uint64_t num_inputs = std::uint64_t{1} << c.r();
  batches_ = static_cast<std::size_t>((num_inputs + 63) / 64);

  fanout_begin_.assign(num_nets_ + 1, 0);
  for (std::uint32_t g = 0; g < num_nets_; ++g) {
    for (const std::uint32_t f : nl.gate(g).fanins) ++fanout_begin_[f + 1];
  }
  for (std::size_t i = 0; i < num_nets_; ++i) {
    fanout_begin_[i + 1] += fanout_begin_[i];
  }
  fanouts_.resize(fanout_begin_.back());
  std::vector<std::uint32_t> fill(fanout_begin_.begin(),
                                  fanout_begin_.end() - 1);
  for (std::uint32_t g = 0; g < num_nets_; ++g) {
    for (const std::uint32_t f : nl.gate(g).fanins) fanouts_[fill[f]++] = g;
  }

  // Stream the states through one full pass per batch, interning each net's
  // per-state vector as soon as the state is done: the raw trace is never
  // held at once. The work list holds the given codes in order; a search
  // adds each successor the first time a row shows it, and lists the codes
  // in increasing order at the end (the traced ones keep the order it found
  // them in).
  std::vector<InternPool> pools(num_nets_);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(c.r() + c.s()));
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> state_values(num_nets_ * batches_);
  std::vector<std::uint64_t> work(state_codes.rbegin(), state_codes.rend());
  std::unordered_set<std::uint64_t> seen;
  if (follow) seen.insert(state_codes.begin(), state_codes.end());
  std::vector<std::uint64_t> untraced;  // a searched row past kMaxStates
  // Room for the given codes, or for as many as the machine has states:
  // the reachable set rarely has more, and growing the index past it
  // would briefly hold two copies.
  const std::size_t expected = std::min(
      follow ? c.enc.encoding.codes.size() : state_codes.size(), kMaxStates);
  rows_.reserve(expected);
  index_.reserve(expected * num_nets_);
  while (!work.empty()) {
    const std::uint64_t code = work.back();
    work.pop_back();
    codes_.push_back(code);
    const std::vector<std::uint64_t>* row = &untraced;
    if (rows_.size() < kMaxStates) {
      const std::size_t si = rows_.size();
      slot_.emplace(code, static_cast<std::uint32_t>(si));
      row = &rows_.emplace_back(num_inputs);
      for (std::size_t b = 0; b < batches_; ++b) {
        batch_input_words(c.r(), c.s(), code, b, words);
        nl.eval(words, values);
        for (std::size_t net = 0; net < num_nets_; ++net) {
          state_values[net * batches_ + b] = values[net];
        }
        store_batch_row(nl, c.n(), values, b, rows_[si]);
      }
      index_.resize((si + 1) * num_nets_);
      for (std::size_t net = 0; net < num_nets_; ++net) {
        // At most kMaxStates distinct vectors per net: the id fits 16 bits.
        index_[si * num_nets_ + net] = static_cast<std::uint16_t>(
            pools[net].intern(&state_values[net * batches_], batches_));
      }
    } else if (follow) {
      untraced = simulate_all_inputs(c, code);
    }
    if (!follow) continue;
    for (const std::uint64_t obs : *row) {
      const std::uint64_t succ = c.next_state_of(obs);
      if (seen.insert(succ).second) work.push_back(succ);
    }
  }
  if (follow) std::sort(codes_.begin(), codes_.end());

  net_base_.resize(num_nets_);
  std::size_t total = 0;
  for (const InternPool& p : pools) total += p.words.size();
  values_.reserve(total);
  for (std::size_t net = 0; net < num_nets_; ++net) {
    net_base_[net] = values_.size();
    values_.insert(values_.end(), pools[net].words.begin(),
                   pools[net].words.end());
    pools[net] = InternPool{};
  }
}

GoldenTrace activation_trace(const fsm::FsmCircuit& c, bool reachable_only) {
  if (reachable_only) return GoldenTrace(c, c.enc.reset_code);
  std::vector<std::uint64_t> codes;
  for (std::uint64_t code = 0; code <= c.state_mask(); ++code) {
    codes.push_back(code);
  }
  return GoldenTrace(c, codes);
}

const std::vector<std::uint64_t>* GoldenTrace::find(
    std::uint64_t state_code) const {
  const auto it = slot_.find(state_code);
  return it == slot_.end() ? nullptr : &rows_[it->second];
}

std::size_t GoldenTrace::bytes() const {
  const std::size_t row_words =
      rows_.empty() ? 0 : rows_.size() * rows_.front().size();
  return 8 * (row_words + values_.size() + net_base_.size()) +
         2 * index_.size() + 4 * (fanout_begin_.size() + fanouts_.size()) +
         16 * slot_.size();
}

FaultyCache::FaultyCache(const GoldenTrace& trace,
                         const logic::Injection& injection)
    : trace_(trace), injection_(injection) {
  if (injection.net >= trace.num_nets_) {
    throw std::invalid_argument("FaultyCache: fault net is not in the netlist");
  }
  // The cone: the fault net plus every net reachable from it through
  // fanouts. Net ids are topologically ordered, so ascending order is an
  // evaluation order, and the fault net comes first.
  std::vector<char> seen(trace.num_nets_, 0);
  std::vector<std::uint32_t> stack{injection.net};
  seen[injection.net] = 1;
  while (!stack.empty()) {
    const std::uint32_t net = stack.back();
    stack.pop_back();
    cone_.push_back(net);
    for (std::uint32_t i = trace.fanout_begin_[net];
         i < trace.fanout_begin_[net + 1]; ++i) {
      const std::uint32_t g = trace.fanouts_[i];
      if (!seen[g]) {
        seen[g] = 1;
        stack.push_back(g);
      }
    }
  }
  std::sort(cone_.begin(), cone_.end());

  const logic::Netlist& nl = trace.circuit().netlist;
  const auto slot_of = [&](std::uint32_t net) {
    return static_cast<std::uint32_t>(
        std::lower_bound(cone_.begin(), cone_.end(), net) - cone_.begin());
  };
  const auto batches = static_cast<std::uint32_t>(trace.batches_);
  for (std::size_t i = 1; i < cone_.size(); ++i) {
    const logic::Gate& g = nl.gate(cone_[i]);
    ConeGate cg{g.type, static_cast<std::uint32_t>(srcs_.size()), 0};
    for (const std::uint32_t f : g.fanins) {
      srcs_.push_back(seen[f] ? (slot_of(f) * batches) << 1 : (f << 1) | 1);
    }
    cg.end = static_cast<std::uint32_t>(srcs_.size());
    gates_.push_back(cg);
  }
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    const std::uint32_t net = nl.outputs()[o];
    if (seen[net]) outs_.emplace_back(static_cast<int>(o), slot_of(net));
  }
  val_.resize(cone_.size() * trace.batches_);
  if (trace.batches_ > 1) ins_.resize(srcs_.size());
}

std::vector<std::uint64_t> FaultyCache::build(std::uint64_t state_code,
                                              RowWords* words) {
  const auto it = trace_.slot_.find(state_code);
  if (words != nullptr) words->traced = it != trace_.slot_.end();
  if (it == trace_.slot_.end()) {
    ++counters_.full_rows;
    return simulate_all_inputs(trace_.circuit(), state_code, &injection_);
  }
  ++counters_.cone_rows;
  if (outs_.empty()) {  // the fault reaches no observable bit
    ++counters_.dormant_rows;
    return {};
  }
  const std::uint32_t si = it->second;
  const std::vector<std::uint64_t>& golden = trace_.rows_[si];
  const std::uint64_t num_inputs = golden.size();
  const std::size_t batches = trace_.batches_;
  // The active batches, [lo, hi) from the first to the last: those where
  // the fault net does not already hold the forced value.
  const std::uint64_t* fault_net = trace_.words(si, cone_[0]);
  std::size_t lo = batches, hi = 0, active = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    if (((fault_net[b] ^ injection_.value_word) & lane_mask(num_inputs, b)) !=
        0) {
      lo = std::min(lo, b);
      hi = b + 1;
      ++active;
    }
  }
  counters_.batches_skipped += batches - active;
  // Copied from the golden row at the first difference: a row the fault
  // leaves golden is never built.
  std::vector<std::uint64_t> row;
  if (active > 0) {
    counters_.cone_gates += gates_.size() * active;
    // Each gate runs over the whole range. A skipped batch inside it holds
    // the forced value on every live lane already, so there every cone net
    // is golden on the live lanes and adds no difference bit.
    std::fill(val_.begin() + static_cast<std::ptrdiff_t>(lo),
              val_.begin() + static_cast<std::ptrdiff_t>(hi),
              injection_.value_word);
    std::uint64_t* out = val_.data() + batches;  // cone slot 1's words
    if (hi - lo == 1) {
      // One batch shares no lookup: each fan-in is read where it is used.
      const auto word = [&](std::uint32_t e) {
        return (e & 1) != 0 ? trace_.words(si, e >> 1)[lo]
                            : val_[(e >> 1) + lo];
      };
      for (const ConeGate& g : gates_) {
        out[lo] = logic::gate_word(
            g.type,
            std::span<const std::uint32_t>(srcs_.data() + g.begin,
                                           g.end - g.begin),
            word);
        out += batches;
      }
    } else {
      // Every fan-in's words are looked up once for the whole range.
      for (std::size_t k = 0; k < srcs_.size(); ++k) {
        const std::uint32_t e = srcs_[k];
        ins_[k] = (e & 1) != 0 ? trace_.words(si, e >> 1)
                               : val_.data() + (e >> 1);
      }
      for (const ConeGate& g : gates_) {
        gate_words(g.type, ins_.data() + g.begin, g.end - g.begin, out, lo,
                   hi);
        out += batches;
      }
    }
    for (const auto& [o, slot] : outs_) {
      const std::uint64_t* faulty = val_.data() + slot * batches;
      const std::uint64_t* good = trace_.words(si, cone_[slot]);
      for (std::size_t b = lo; b < hi; ++b) {
        std::uint64_t d = (faulty[b] ^ good[b]) & lane_mask(num_inputs, b);
        if (d != 0 && row.empty()) row = golden;
        while (d != 0) {
          row[b * 64 + static_cast<std::uint64_t>(std::countr_zero(d))] ^=
              std::uint64_t{1} << o;
          d &= d - 1;
        }
      }
    }
  }
  if (row.empty()) ++counters_.dormant_rows;
  if (words != nullptr && !row.empty()) {
    // The checker's inputs in each changed batch: the cone's words for the
    // bits it drives (the forced value itself on a faulty observable
    // net), the trace's for the rest.
    words->batches.clear();
    words->words.clear();
    for (std::size_t b = lo; b < hi; ++b) {
      const auto differs = [&](const std::pair<int, std::uint32_t>& out) {
        const std::uint32_t slot = out.second;
        return ((val_[slot * batches + b] ^ trace_.words(si, cone_[slot])[b]) &
                lane_mask(num_inputs, b)) != 0;
      };
      if (std::none_of(outs_.begin(), outs_.end(), differs)) continue;
      words->batches.push_back(static_cast<std::uint32_t>(b));
      const std::size_t base = words->words.size();
      for (const std::uint32_t net : trace_.circuit().netlist.outputs()) {
        words->words.push_back(trace_.words(si, net)[b]);
      }
      for (const auto& [o, slot] : outs_) {
        words->words[base + static_cast<std::size_t>(o)] =
            val_[slot * batches + b];
      }
    }
  }
  return row;
}

const std::vector<std::uint64_t>* FaultyCache::row(std::uint64_t state_code) {
  auto it = cache_.find(state_code);
  if (it == cache_.end()) {
    it = cache_.emplace(state_code, build(state_code)).first;
  }
  return it->second.empty() ? nullptr : &it->second;
}

std::vector<std::uint64_t> reachable_codes(const fsm::FsmCircuit& c,
                                           std::uint64_t reset_code) {
  return GoldenCache(c).reachable(reset_code);
}

}  // namespace ced::sim
