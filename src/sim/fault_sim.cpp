#include "sim/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ced::sim {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Lanes of batch `batch` that carry real inputs (all 64 unless the machine
/// has fewer than 64 inputs).
std::uint64_t lane_mask(std::uint64_t num_inputs, std::uint64_t batch) {
  const std::uint64_t in_batch =
      std::min<std::uint64_t>(64, num_inputs - batch * 64);
  return in_batch == 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << in_batch) - 1;
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

GoldenTrace::GoldenTrace(const fsm::FsmCircuit& c,
                         std::span<const std::uint64_t> state_codes)
    : circuit_(c) {
  const logic::Netlist& nl = c.netlist;
  num_nets_ = nl.num_nets();
  const std::uint64_t num_inputs = std::uint64_t{1} << c.r();
  batches_ = static_cast<std::size_t>((num_inputs + 63) / 64);
  const std::size_t num_states = std::min(state_codes.size(), kMaxStates);

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
  // held at once.
  std::vector<InternPool> pools(num_nets_);
  rows_.resize(num_states);
  index_.resize(num_states * num_nets_);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(c.r() + c.s()));
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> state_values(num_nets_ * batches_);
  for (std::size_t si = 0; si < num_states; ++si) {
    const std::uint64_t code = state_codes[si];
    slot_.emplace(code, static_cast<std::uint32_t>(si));
    std::vector<std::uint64_t>& row = rows_[si];
    row.resize(num_inputs);
    for (std::size_t b = 0; b < batches_; ++b) {
      batch_input_words(c.r(), c.s(), code, b, words);
      nl.eval(words, values);
      for (std::size_t net = 0; net < num_nets_; ++net) {
        state_values[net * batches_ + b] = values[net];
      }
      store_batch_row(nl, c.n(), values, b, row);
    }
    for (std::size_t net = 0; net < num_nets_; ++net) {
      // At most kMaxStates distinct vectors per net: the id fits 16 bits.
      index_[si * num_nets_ + net] = static_cast<std::uint16_t>(
          pools[net].intern(&state_values[net * batches_], batches_));
    }
  }

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
  for (std::size_t i = 1; i < cone_.size(); ++i) {
    const logic::Gate& g = nl.gate(cone_[i]);
    ConeGate cg{g.type, static_cast<std::uint32_t>(srcs_.size()), 0};
    for (const std::uint32_t f : g.fanins) {
      srcs_.push_back(seen[f] ? slot_of(f) << 1 : (f << 1) | 1);
    }
    cg.end = static_cast<std::uint32_t>(srcs_.size());
    gates_.push_back(cg);
  }
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    const std::uint32_t net = nl.outputs()[o];
    if (seen[net]) outs_.emplace_back(static_cast<int>(o), slot_of(net));
  }
  val_.resize(cone_.size());
}

std::vector<std::uint64_t> FaultyCache::simulate(std::uint64_t state_code) {
  const auto it = trace_.slot_.find(state_code);
  if (it == trace_.slot_.end()) {
    ++counters_.full_rows;
    return simulate_all_inputs(trace_.circuit(), state_code, &injection_);
  }
  ++counters_.cone_rows;
  const std::uint32_t si = it->second;
  std::vector<std::uint64_t> row = trace_.rows_[si];
  if (outs_.empty()) return row;  // the fault reaches no observable bit

  const std::uint64_t num_inputs = row.size();
  for (std::uint64_t b = 0; b < trace_.batches_; ++b) {
    const std::uint64_t lanes = lane_mask(num_inputs, b);
    if (((trace_.word(si, cone_[0], b) ^ injection_.value_word) & lanes) ==
        0) {
      ++counters_.batches_skipped;  // the fault net already holds the value
      continue;
    }
    const auto word = [&](std::uint32_t e) {
      return (e & 1) != 0 ? trace_.word(si, e >> 1, b) : val_[e >> 1];
    };
    val_[0] = injection_.value_word;
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const ConeGate& g = gates_[i];
      val_[i + 1] = logic::gate_word(
          g.type,
          std::span<const std::uint32_t>(srcs_.data() + g.begin,
                                         g.end - g.begin),
          word);
    }
    counters_.cone_gates += gates_.size();
    for (const auto& [o, slot] : outs_) {
      std::uint64_t d = (val_[slot] ^ trace_.word(si, cone_[slot], b)) & lanes;
      while (d != 0) {
        row[b * 64 + static_cast<std::uint64_t>(std::countr_zero(d))] ^=
            std::uint64_t{1} << o;
        d &= d - 1;
      }
    }
  }
  return row;
}

const std::vector<std::uint64_t>& FaultyCache::rows(std::uint64_t state_code) {
  auto it = cache_.find(state_code);
  if (it == cache_.end()) {
    it = cache_.emplace(state_code, simulate(state_code)).first;
  }
  return it->second;
}

std::vector<std::uint64_t> reachable_codes(const fsm::FsmCircuit& c,
                                           std::uint64_t reset_code) {
  std::vector<std::uint64_t> order;
  std::unordered_map<std::uint64_t, bool> seen;
  std::vector<std::uint64_t> stack{reset_code};
  seen[reset_code] = true;
  while (!stack.empty()) {
    const std::uint64_t code = stack.back();
    stack.pop_back();
    order.push_back(code);
    for (const std::uint64_t obs : simulate_all_inputs(c, code)) {
      const std::uint64_t next = c.next_state_of(obs);
      if (!seen[next]) {
        seen[next] = true;
        stack.push_back(next);
      }
    }
  }
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace ced::sim
