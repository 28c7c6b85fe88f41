#include "storage/format.hpp"

#include <bit>
#include <cstring>

#include "common/io.hpp"
#include "core/erroneous_case.hpp"

namespace ced::storage {
namespace {

constexpr std::uint32_t tag4(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr std::uint32_t kTagEncoding = tag4('E', 'N', 'C', '_');
constexpr std::uint32_t kTagNetlist = tag4('N', 'E', 'T', '_');
constexpr std::uint32_t kTagCovers = tag4('C', 'O', 'V', '_');
constexpr std::uint32_t kTagFaults = tag4('F', 'L', 'T', '_');
constexpr std::uint32_t kTagTables = tag4('T', 'A', 'B', '_');
constexpr std::uint32_t kTagShard = tag4('S', 'H', 'R', 'D');
constexpr std::uint32_t kTagScheme = tag4('S', 'C', 'H', 'M');
constexpr std::uint32_t kTagReport = tag4('R', 'E', 'P', 'T');
constexpr std::uint32_t kTagManifest = tag4('M', 'A', 'N', 'F');
constexpr std::uint32_t kTagCampaignShard = tag4('C', 'S', 'H', 'D');
constexpr std::uint32_t kTagCampaignReport = tag4('C', 'R', 'P', 'T');

Status corrupt(const std::string& what) {
  return Status::invalid_input(Stage::kStore, what);
}

// Resilience reports appear in two artifacts (report + manifest); one
// writer/reader pair keeps the wire layouts identical.
void put_resilience(ByteWriter& w, const core::ResilienceReport& res) {
  w.u8(static_cast<std::uint8_t>(res.status.code));
  w.u8(static_cast<std::uint8_t>(res.status.stage));
  w.str(res.status.message);
  w.u8(res.extraction_truncated ? 1 : 0);
  w.u8(res.table_strengthened ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(res.solver_requested));
  w.u8(static_cast<std::uint8_t>(res.solver_used));
  w.u64(res.events.size());
  for (const core::FallbackEvent& e : res.events) {
    w.u8(static_cast<std::uint8_t>(e.stage));
    w.u8(static_cast<std::uint8_t>(e.reason));
    w.str(e.detail);
    w.f64(e.seconds);
    w.u64(e.cases_seen);
  }
  w.u64(res.store_events.size());
  for (const std::string& e : res.store_events) w.str(e);
}

/// nullptr on success, else what was malformed (for corrupt()).
const char* get_resilience(ByteReader& r, core::ResilienceReport& res) {
  const std::uint8_t code = r.u8();
  const std::uint8_t stage = r.u8();
  if (!r.ok() || code > static_cast<std::uint8_t>(StatusCode::kInternal) ||
      stage > static_cast<std::uint8_t>(Stage::kStore)) {
    return "status malformed";
  }
  res.status.code = static_cast<StatusCode>(code);
  res.status.stage = static_cast<Stage>(stage);
  res.status.message = r.str();
  res.extraction_truncated = r.u8() != 0;
  res.table_strengthened = r.u8() != 0;
  const std::uint8_t requested = r.u8();
  const std::uint8_t used = r.u8();
  if (!r.ok() ||
      requested > static_cast<std::uint8_t>(core::CascadeLevel::kDuplication) ||
      used > static_cast<std::uint8_t>(core::CascadeLevel::kDuplication)) {
    return "cascade levels malformed";
  }
  res.solver_requested = static_cast<core::CascadeLevel>(requested);
  res.solver_used = static_cast<core::CascadeLevel>(used);
  const std::uint64_t num_events = r.u64();
  if (!r.ok() || num_events > 4096) return "events malformed";
  for (std::uint64_t i = 0; i < num_events; ++i) {
    core::FallbackEvent e;
    const std::uint8_t estage = r.u8();
    const std::uint8_t ereason = r.u8();
    if (!r.ok() || estage > static_cast<std::uint8_t>(Stage::kStore) ||
        ereason > static_cast<std::uint8_t>(StatusCode::kInternal)) {
      return "event malformed";
    }
    e.stage = static_cast<Stage>(estage);
    e.reason = static_cast<StatusCode>(ereason);
    e.detail = r.str();
    e.seconds = r.f64();
    e.cases_seen = r.u64();
    res.events.push_back(std::move(e));
  }
  const std::uint64_t num_store_events = r.u64();
  if (!r.ok() || num_store_events > 4096) return "store events malformed";
  for (std::uint64_t i = 0; i < num_store_events; ++i) {
    res.store_events.push_back(r.str());
  }
  return nullptr;
}

}  // namespace

const char* to_string(ArtifactKind k) {
  switch (k) {
    case ArtifactKind::kCircuit: return "circuit";
    case ArtifactKind::kFaultList: return "fault-list";
    case ArtifactKind::kTableBundle: return "table-bundle";
    case ArtifactKind::kParityScheme: return "parity-scheme";
    case ArtifactKind::kReport: return "report";
    case ArtifactKind::kShard: return "shard";
    case ArtifactKind::kManifest: return "manifest";
    case ArtifactKind::kCampaignShard: return "campaign-shard";
    case ArtifactKind::kCampaignReport: return "campaign-report";
  }
  return "?";
}

// ----------------------------------------------------------- byte streams

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u64(s.size());
  out_.append(s);
}

bool ByteReader::take(std::size_t n, const char** p) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t ByteReader::u8() {
  const char* p = nullptr;
  if (!take(1, &p)) return 0;
  return static_cast<std::uint8_t>(*p);
}

std::uint16_t ByteReader::u16() {
  const char* p = nullptr;
  if (!take(2, &p)) return 0;
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(
        v | static_cast<std::uint16_t>(static_cast<unsigned char>(p[i]))
                << (8 * i));
  }
  return v;
}

std::uint32_t ByteReader::u32() {
  const char* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  const char* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return {};
  }
  std::string s(data_.data() + pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

Status ByteReader::status(const std::string& what) const {
  if (ok_) return Status::make_ok();
  return corrupt(what + ": payload truncated or malformed");
}

// -------------------------------------------------------------- envelope

void ArtifactWriter::section(std::uint32_t tag, std::string payload) {
  sections_.emplace_back(tag, std::move(payload));
}

std::string ArtifactWriter::seal() const {
  ByteWriter w;
  w.bytes(std::string_view(kMagic, 4));
  w.u16(kFormatVersion);
  w.u16(static_cast<std::uint16_t>(kind_));
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [tag, payload] : sections_) {
    w.u32(tag);
    w.u64(payload.size());
    w.u32(io::crc32(payload));
    w.bytes(payload);
  }
  return std::string(w.data());
}

Result<ArtifactReader> ArtifactReader::open(std::string_view bytes,
                                            ArtifactKind expected_kind) {
  if (bytes.size() < 12 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return corrupt("bad magic (not a CED artifact, or header destroyed)");
  }
  ByteReader r(bytes.substr(4));
  const std::uint16_t version = r.u16();
  if (version != kFormatVersion) {
    return corrupt("unsupported format version " + std::to_string(version) +
                   " (expected " + std::to_string(kFormatVersion) + ")");
  }
  const std::uint16_t kind = r.u16();
  const std::uint32_t count = r.u32();
  ArtifactReader out;
  out.kind_ = static_cast<ArtifactKind>(kind);
  std::size_t pos = 12;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (bytes.size() - pos < 16) return corrupt("section header truncated");
    ByteReader h(bytes.substr(pos, 16));
    const std::uint32_t tag = h.u32();
    const std::uint64_t size = h.u64();
    const std::uint32_t crc = h.u32();
    pos += 16;
    if (bytes.size() - pos < size) return corrupt("section payload truncated");
    const std::string_view payload = bytes.substr(pos, size);
    pos += static_cast<std::size_t>(size);
    if (io::crc32(payload) != crc) {
      return corrupt("section CRC mismatch (artifact corrupted)");
    }
    out.sections_.emplace_back(tag, payload);
  }
  if (pos != bytes.size()) return corrupt("trailing garbage after sections");
  if (out.kind_ != expected_kind) {
    return corrupt(std::string("artifact kind mismatch: found ") +
                   to_string(out.kind_) + ", expected " +
                   to_string(expected_kind));
  }
  return out;
}

Result<std::string_view> ArtifactReader::section(std::uint32_t tag) const {
  for (const auto& [t, payload] : sections_) {
    if (t == tag) return payload;
  }
  return corrupt("required section missing");
}

Status validate_envelope(std::string_view bytes) {
  if (bytes.size() < 12 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return corrupt("bad magic");
  }
  ByteReader r(bytes.substr(4));
  const std::uint16_t version = r.u16();
  const std::uint16_t kind = r.u16();
  if (version != kFormatVersion) {
    return corrupt("unsupported format version " + std::to_string(version));
  }
  // Reuse the full parse for bounds + CRC checks; accept whatever kind the
  // header claims.
  auto opened = ArtifactReader::open(bytes, static_cast<ArtifactKind>(kind));
  return opened ? Status::make_ok() : opened.status();
}

// --------------------------------------------------------------- helpers

namespace {

void put_bitvec(ByteWriter& w, const logic::BitVec& bv) {
  w.u64(bv.size());
  w.u64(bv.words().size());
  for (const std::uint64_t word : bv.words()) w.u64(word);
}

bool get_bitvec(ByteReader& r, logic::BitVec& out) {
  const std::uint64_t size = r.u64();
  const std::uint64_t words = r.u64();
  if (!r.ok()) return false;
  if (words != (size + 63) / 64) return false;
  out = logic::BitVec(static_cast<std::size_t>(size));
  for (std::uint64_t wi = 0; wi < words; ++wi) {
    const std::uint64_t word = r.u64();
    if (!r.ok()) return false;
    for (int b = 0; b < 64; ++b) {
      if (!((word >> b) & 1)) continue;
      const std::uint64_t idx = wi * 64 + static_cast<std::uint64_t>(b);
      if (idx >= size) return false;  // trailing bit set: non-canonical
      out.set(static_cast<std::size_t>(idx));
    }
  }
  return true;
}

void put_spec(ByteWriter& w, const logic::SopSpec& s) {
  w.u32(static_cast<std::uint32_t>(s.num_vars));
  put_bitvec(w, s.on);
  put_bitvec(w, s.dc);
}

bool get_spec(ByteReader& r, logic::SopSpec& out) {
  const std::uint32_t vars = r.u32();
  if (!r.ok() || vars > logic::TruthTable::kMaxVars) return false;
  out = logic::SopSpec(static_cast<int>(vars));
  return get_bitvec(r, out.on) && get_bitvec(r, out.dc) &&
         out.on.size() == (std::size_t{1} << vars) &&
         out.dc.size() == (std::size_t{1} << vars);
}

void put_table(ByteWriter& w, const core::DetectabilityTable& t) {
  w.u32(static_cast<std::uint32_t>(t.num_bits));
  w.u32(static_cast<std::uint32_t>(t.latency));
  w.u8(t.strengthened ? 1 : 0);
  w.u8(t.truncated ? 1 : 0);
  w.str(t.truncation_reason);
  w.u64(t.num_faults);
  w.u64(t.num_detectable_faults);
  w.u64(t.num_activations);
  w.u64(t.num_paths);
  w.u64(t.num_loop_truncations);
  w.u64(t.cases.size());
  for (const core::ErroneousCase& ec : t.cases) {
    w.u8(ec.length);
    for (int k = 0; k < ec.length; ++k) {
      w.u64(ec.diff[static_cast<std::size_t>(k)]);
    }
  }
}

bool get_table(ByteReader& r, core::DetectabilityTable& t) {
  t.num_bits = static_cast<int>(r.u32());
  t.latency = static_cast<int>(r.u32());
  const std::uint8_t strengthened = r.u8();
  const std::uint8_t truncated = r.u8();
  if (strengthened > 1 || truncated > 1) return false;
  t.strengthened = strengthened != 0;
  t.truncated = truncated != 0;
  t.truncation_reason = r.str();
  t.num_faults = r.u64();
  t.num_detectable_faults = r.u64();
  t.num_activations = r.u64();
  t.num_paths = r.u64();
  t.num_loop_truncations = r.u64();
  const std::uint64_t cases = r.u64();
  if (!r.ok() || t.num_bits < 0 || t.num_bits > 64 || t.latency < 1 ||
      t.latency > core::kMaxLatency) {
    return false;
  }
  t.cases.clear();
  t.cases.reserve(static_cast<std::size_t>(cases));
  for (std::uint64_t i = 0; i < cases; ++i) {
    core::ErroneousCase ec;
    ec.length = r.u8();
    if (!r.ok() || ec.length < 1 || ec.length > core::kMaxLatency) {
      return false;
    }
    for (int k = 0; k < ec.length; ++k) {
      ec.diff[static_cast<std::size_t>(k)] = r.u64();
    }
    if (!r.ok()) return false;
    t.cases.push_back(ec);
  }
  return r.ok();
}

void put_tables(ByteWriter& w,
                const std::vector<core::DetectabilityTable>& tabs) {
  w.u64(tabs.size());
  for (const auto& t : tabs) put_table(w, t);
}

bool get_tables(ByteReader& r, std::vector<core::DetectabilityTable>& tabs) {
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > core::kMaxLatency) return false;
  tabs.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    core::DetectabilityTable t;
    if (!get_table(r, t)) return false;
    tabs.push_back(std::move(t));
  }
  return true;
}

}  // namespace

// ----------------------------------------------------------- FsmCircuit

std::string encode_circuit(const fsm::FsmCircuit& c) {
  ArtifactWriter art(ArtifactKind::kCircuit);

  ByteWriter enc;
  enc.u32(static_cast<std::uint32_t>(c.enc.num_inputs));
  enc.u32(static_cast<std::uint32_t>(c.enc.num_state_bits));
  enc.u32(static_cast<std::uint32_t>(c.enc.num_outputs));
  enc.u64(c.enc.reset_code);
  enc.u32(static_cast<std::uint32_t>(c.enc.encoding.num_bits));
  enc.u64(c.enc.encoding.codes.size());
  for (const std::uint64_t code : c.enc.encoding.codes) enc.u64(code);
  enc.u64(c.enc.next_state.size());
  for (const auto& s : c.enc.next_state) put_spec(enc, s);
  enc.u64(c.enc.outputs.size());
  for (const auto& s : c.enc.outputs) put_spec(enc, s);
  art.section(kTagEncoding, enc.take());

  ByteWriter net;
  const logic::Netlist& n = c.netlist;
  net.u64(n.num_nets());
  std::size_t input_idx = 0;
  for (std::uint32_t g = 0; g < n.num_nets(); ++g) {
    const logic::Gate& gate = n.gate(g);
    net.u8(static_cast<std::uint8_t>(gate.type));
    if (gate.type == logic::GateType::kInput) {
      net.str(n.input_name(input_idx++));
    } else if (gate.type != logic::GateType::kConst0 &&
               gate.type != logic::GateType::kConst1) {
      net.u32(static_cast<std::uint32_t>(gate.fanins.size()));
      for (const std::uint32_t f : gate.fanins) net.u32(f);
    }
  }
  net.u64(n.num_outputs());
  for (std::size_t o = 0; o < n.num_outputs(); ++o) {
    net.u32(n.outputs()[o]);
    net.str(n.output_name(o));
  }
  art.section(kTagNetlist, net.take());

  ByteWriter cov;
  cov.u64(c.covers.size());
  for (const logic::Cover& cv : c.covers) {
    cov.u32(static_cast<std::uint32_t>(cv.num_vars()));
    cov.u64(cv.cubes().size());
    for (const logic::Cube& cube : cv.cubes()) {
      cov.u64(cube.care);
      cov.u64(cube.val);
    }
  }
  art.section(kTagCovers, cov.take());

  return art.seal();
}

Result<fsm::FsmCircuit> decode_circuit(std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kCircuit);
  if (!art) return art.status();

  fsm::FsmCircuit c;

  auto enc_bytes = art->section(kTagEncoding);
  if (!enc_bytes) return enc_bytes.status();
  {
    ByteReader r(*enc_bytes);
    c.enc.num_inputs = static_cast<int>(r.u32());
    c.enc.num_state_bits = static_cast<int>(r.u32());
    c.enc.num_outputs = static_cast<int>(r.u32());
    c.enc.reset_code = r.u64();
    c.enc.encoding.num_bits = static_cast<int>(r.u32());
    const std::uint64_t num_codes = r.u64();
    if (!r.ok() || c.enc.num_inputs < 0 || c.enc.num_state_bits < 0 ||
        c.enc.num_outputs < 0 || num_codes > (std::uint64_t{1} << 20)) {
      return corrupt("circuit encoding section malformed");
    }
    for (std::uint64_t i = 0; i < num_codes; ++i) {
      c.enc.encoding.codes.push_back(r.u64());
    }
    const std::uint64_t num_ns = r.u64();
    if (!r.ok() || num_ns != static_cast<std::uint64_t>(c.enc.num_state_bits)) {
      return corrupt("circuit next-state spec count mismatch");
    }
    for (std::uint64_t i = 0; i < num_ns; ++i) {
      logic::SopSpec s(0);
      if (!get_spec(r, s)) return corrupt("circuit next-state spec malformed");
      c.enc.next_state.push_back(std::move(s));
    }
    const std::uint64_t num_out = r.u64();
    if (!r.ok() || num_out != static_cast<std::uint64_t>(c.enc.num_outputs)) {
      return corrupt("circuit output spec count mismatch");
    }
    for (std::uint64_t i = 0; i < num_out; ++i) {
      logic::SopSpec s(0);
      if (!get_spec(r, s)) return corrupt("circuit output spec malformed");
      c.enc.outputs.push_back(std::move(s));
    }
    if (!r.at_end()) return corrupt("circuit encoding section has extra bytes");
  }

  auto net_bytes = art->section(kTagNetlist);
  if (!net_bytes) return net_bytes.status();
  {
    ByteReader r(*net_bytes);
    const std::uint64_t num_nets = r.u64();
    if (!r.ok() || num_nets > (std::uint64_t{1} << 28)) {
      return corrupt("netlist size malformed");
    }
    for (std::uint64_t g = 0; g < num_nets; ++g) {
      const std::uint8_t type_raw = r.u8();
      if (!r.ok() ||
          type_raw > static_cast<std::uint8_t>(logic::GateType::kXnor)) {
        return corrupt("netlist gate type out of range");
      }
      const auto type = static_cast<logic::GateType>(type_raw);
      if (type == logic::GateType::kInput) {
        c.netlist.add_input(r.str());
      } else if (type == logic::GateType::kConst0) {
        c.netlist.add_const(false);
      } else if (type == logic::GateType::kConst1) {
        c.netlist.add_const(true);
      } else {
        const std::uint32_t fanin_count = r.u32();
        if (!r.ok() || fanin_count > num_nets) {
          return corrupt("netlist fanin count malformed");
        }
        std::vector<std::uint32_t> fanins;
        fanins.reserve(fanin_count);
        for (std::uint32_t i = 0; i < fanin_count; ++i) {
          const std::uint32_t f = r.u32();
          if (!r.ok() || f >= g) return corrupt("netlist fanin out of range");
          fanins.push_back(f);
        }
        try {
          c.netlist.add_gate(type, std::move(fanins));
        } catch (const std::exception& e) {
          return corrupt(std::string("netlist gate rejected: ") + e.what());
        }
      }
    }
    const std::uint64_t num_outputs = r.u64();
    if (!r.ok() || num_outputs > num_nets) {
      return corrupt("netlist output count malformed");
    }
    for (std::uint64_t o = 0; o < num_outputs; ++o) {
      const std::uint32_t net = r.u32();
      if (!r.ok() || net >= num_nets) {
        return corrupt("netlist output net out of range");
      }
      c.netlist.mark_output(net, r.str());
    }
    if (!r.at_end()) return corrupt("netlist section has extra bytes");
  }

  auto cov_bytes = art->section(kTagCovers);
  if (!cov_bytes) return cov_bytes.status();
  {
    ByteReader r(*cov_bytes);
    const std::uint64_t num_covers = r.u64();
    if (!r.ok() || num_covers > (std::uint64_t{1} << 20)) {
      return corrupt("cover count malformed");
    }
    for (std::uint64_t i = 0; i < num_covers; ++i) {
      const std::uint32_t vars = r.u32();
      const std::uint64_t cubes = r.u64();
      if (!r.ok() || vars > 64 || cubes > (std::uint64_t{1} << 28)) {
        return corrupt("cover header malformed");
      }
      logic::Cover cv(static_cast<int>(vars));
      for (std::uint64_t k = 0; k < cubes; ++k) {
        logic::Cube cube;
        cube.care = r.u64();
        cube.val = r.u64();
        cv.add(cube);
      }
      if (!r.ok()) return corrupt("cover cubes truncated");
      c.covers.push_back(std::move(cv));
    }
    if (!r.at_end()) return corrupt("cover section has extra bytes");
  }

  return c;
}

// ----------------------------------------------------------- fault lists

std::string encode_fault_list(std::span<const sim::StuckAtFault> faults) {
  ArtifactWriter art(ArtifactKind::kFaultList);
  ByteWriter w;
  w.u64(faults.size());
  for (const auto& f : faults) {
    w.u32(f.net);
    w.u8(f.stuck_value ? 1 : 0);
  }
  art.section(kTagFaults, w.take());
  return art.seal();
}

Result<std::vector<sim::StuckAtFault>> decode_fault_list(
    std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kFaultList);
  if (!art) return art.status();
  auto payload = art->section(kTagFaults);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > (std::uint64_t{1} << 32)) {
    return corrupt("fault count malformed");
  }
  std::vector<sim::StuckAtFault> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    sim::StuckAtFault f;
    f.net = r.u32();
    const std::uint8_t stuck = r.u8();
    if (!r.ok() || stuck > 1) return corrupt("fault entry malformed");
    f.stuck_value = stuck != 0;
    out.push_back(f);
  }
  if (!r.at_end()) return corrupt("fault list has extra bytes");
  return out;
}

// ------------------------------------------------------------ tables

std::string encode_tables(const std::vector<core::DetectabilityTable>& tabs) {
  ArtifactWriter art(ArtifactKind::kTableBundle);
  ByteWriter w;
  put_tables(w, tabs);
  art.section(kTagTables, w.take());
  return art.seal();
}

Result<std::vector<core::DetectabilityTable>> decode_tables(
    std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kTableBundle);
  if (!art) return art.status();
  auto payload = art->section(kTagTables);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  std::vector<core::DetectabilityTable> tabs;
  if (!get_tables(r, tabs) || !r.at_end()) {
    return corrupt("table bundle malformed");
  }
  return tabs;
}

// ------------------------------------------------------------ shards

std::string encode_shard(const core::ExtractShard& shard) {
  ArtifactWriter art(ArtifactKind::kShard);
  ByteWriter w;
  w.u32(shard.index);
  w.u32(shard.num_shards);
  put_tables(w, shard.tables);
  art.section(kTagShard, w.take());
  return art.seal();
}

Result<core::ExtractShard> decode_shard(std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kShard);
  if (!art) return art.status();
  auto payload = art->section(kTagShard);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  core::ExtractShard shard;
  shard.index = r.u32();
  shard.num_shards = r.u32();
  if (!r.ok() || shard.index >= shard.num_shards) {
    return corrupt("shard header malformed");
  }
  if (!get_tables(r, shard.tables) || !r.at_end()) {
    return corrupt("shard tables malformed");
  }
  return shard;
}

// ------------------------------------------------------------ schemes

std::string encode_scheme(const SchemeArtifact& s) {
  ArtifactWriter art(ArtifactKind::kParityScheme);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(s.latency));
  w.u64(s.parities.size());
  for (const core::ParityFunc p : s.parities) w.u64(p);
  art.section(kTagScheme, w.take());
  return art.seal();
}

Result<SchemeArtifact> decode_scheme(std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kParityScheme);
  if (!art) return art.status();
  auto payload = art->section(kTagScheme);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  SchemeArtifact s;
  s.latency = static_cast<int>(r.u32());
  const std::uint64_t count = r.u64();
  if (!r.ok() || s.latency < 1 || s.latency > core::kMaxLatency ||
      count > 64) {
    return corrupt("scheme header malformed");
  }
  for (std::uint64_t i = 0; i < count; ++i) s.parities.push_back(r.u64());
  if (!r.at_end()) return corrupt("scheme has extra bytes");
  return s;
}

// ------------------------------------------------------------ reports

std::string encode_report(const core::PipelineReport& rep) {
  ArtifactWriter art(ArtifactKind::kReport);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(rep.inputs));
  w.u32(static_cast<std::uint32_t>(rep.state_bits));
  w.u32(static_cast<std::uint32_t>(rep.outputs));
  w.u64(rep.orig_gates);
  w.f64(rep.orig_area);
  w.u64(rep.num_faults);
  w.u64(rep.num_detectable_faults);
  w.u64(rep.num_cases);
  w.u32(static_cast<std::uint32_t>(rep.latency));
  w.u32(static_cast<std::uint32_t>(rep.num_trees));
  w.u64(rep.ced_gates);
  w.f64(rep.ced_area);
  w.u64(rep.parities.size());
  for (const core::ParityFunc p : rep.parities) w.u64(p);
  const core::Algorithm1Stats& st = rep.algo_stats;
  w.u32(static_cast<std::uint32_t>(st.lp_solves));
  w.u32(static_cast<std::uint32_t>(st.roundings));
  w.u32(static_cast<std::uint32_t>(st.repairs));
  w.u32(static_cast<std::uint32_t>(st.final_q));
  w.u32(static_cast<std::uint32_t>(st.lp_iterations));
  w.u8(st.greedy_fallback ? 1 : 0);
  w.u8(st.lp_budget_hit ? 1 : 0);
  w.u8(st.deadline_hit ? 1 : 0);
  w.u8(st.greedy_degraded ? 1 : 0);
  w.u64(st.qs_tried.size());
  for (const int q : st.qs_tried) w.u32(static_cast<std::uint32_t>(q));
  put_resilience(w, rep.resilience);
  w.f64(rep.t_synth);
  w.f64(rep.t_extract);
  w.f64(rep.t_solve);
  w.f64(rep.t_ced);
  art.section(kTagReport, w.take());
  return art.seal();
}

Result<core::PipelineReport> decode_report(std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kReport);
  if (!art) return art.status();
  auto payload = art->section(kTagReport);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  core::PipelineReport rep;
  rep.inputs = static_cast<int>(r.u32());
  rep.state_bits = static_cast<int>(r.u32());
  rep.outputs = static_cast<int>(r.u32());
  rep.orig_gates = r.u64();
  rep.orig_area = r.f64();
  rep.num_faults = r.u64();
  rep.num_detectable_faults = r.u64();
  rep.num_cases = r.u64();
  rep.latency = static_cast<int>(r.u32());
  rep.num_trees = static_cast<int>(r.u32());
  rep.ced_gates = r.u64();
  rep.ced_area = r.f64();
  const std::uint64_t num_parities = r.u64();
  if (!r.ok() || num_parities > 64) return corrupt("report parities malformed");
  for (std::uint64_t i = 0; i < num_parities; ++i) {
    rep.parities.push_back(r.u64());
  }
  core::Algorithm1Stats& st = rep.algo_stats;
  st.lp_solves = static_cast<int>(r.u32());
  st.roundings = static_cast<int>(r.u32());
  st.repairs = static_cast<int>(r.u32());
  st.final_q = static_cast<int>(r.u32());
  st.lp_iterations = static_cast<int>(r.u32());
  st.greedy_fallback = r.u8() != 0;
  st.lp_budget_hit = r.u8() != 0;
  st.deadline_hit = r.u8() != 0;
  st.greedy_degraded = r.u8() != 0;
  const std::uint64_t num_qs = r.u64();
  if (!r.ok() || num_qs > 4096) return corrupt("report qs_tried malformed");
  for (std::uint64_t i = 0; i < num_qs; ++i) {
    st.qs_tried.push_back(static_cast<int>(r.u32()));
  }
  if (const char* err = get_resilience(r, rep.resilience)) {
    return corrupt(std::string("report ") + err);
  }
  rep.t_synth = r.f64();
  rep.t_extract = r.f64();
  rep.t_solve = r.f64();
  rep.t_ced = r.f64();
  if (!r.at_end()) return corrupt("report has extra bytes");
  return rep;
}

// ------------------------------------------------------------ manifests

std::string encode_manifest(const ManifestArtifact& m) {
  ArtifactWriter art(ArtifactKind::kManifest);
  ByteWriter w;
  w.str(m.config_digest);
  w.str(m.extraction_key);
  w.str(m.circuit);
  w.u32(static_cast<std::uint32_t>(m.latency));
  w.u32(static_cast<std::uint32_t>(m.threads));
  w.u64(m.parities.size());
  for (const core::ParityFunc p : m.parities) w.u64(p);
  put_resilience(w, m.resilience);
  w.f64(m.t_synth);
  w.f64(m.t_extract);
  w.f64(m.t_solve);
  w.f64(m.t_ced);
  w.u64(m.spans.size());
  for (const obs::SpanRecord& s : m.spans) {
    w.u64(s.id);
    w.u64(s.parent);
    w.str(s.name);
    w.f64(s.start_s);
    w.f64(s.dur_s);
    w.u64(s.attrs.size());
    for (const auto& [k, v] : s.attrs) {
      w.str(k);
      w.str(v);
    }
  }
  art.section(kTagManifest, w.take());
  return art.seal();
}

Result<ManifestArtifact> decode_manifest(std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kManifest);
  if (!art) return art.status();
  auto payload = art->section(kTagManifest);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  ManifestArtifact m;
  m.config_digest = r.str();
  m.extraction_key = r.str();
  m.circuit = r.str();
  m.latency = static_cast<int>(r.u32());
  m.threads = static_cast<int>(r.u32());
  const std::uint64_t num_parities = r.u64();
  if (!r.ok() || num_parities > 64) {
    return corrupt("manifest parities malformed");
  }
  for (std::uint64_t i = 0; i < num_parities; ++i) {
    m.parities.push_back(r.u64());
  }
  if (const char* err = get_resilience(r, m.resilience)) {
    return corrupt(std::string("manifest ") + err);
  }
  m.t_synth = r.f64();
  m.t_extract = r.f64();
  m.t_solve = r.f64();
  m.t_ced = r.f64();
  const std::uint64_t num_spans = r.u64();
  if (!r.ok() || num_spans > 65536) return corrupt("manifest spans malformed");
  for (std::uint64_t i = 0; i < num_spans; ++i) {
    obs::SpanRecord s;
    s.id = r.u64();
    s.parent = r.u64();
    s.name = r.str();
    s.start_s = r.f64();
    s.dur_s = r.f64();
    const std::uint64_t num_attrs = r.u64();
    if (!r.ok() || num_attrs > 256) return corrupt("manifest attrs malformed");
    for (std::uint64_t j = 0; j < num_attrs; ++j) {
      std::string k = r.str();
      std::string v = r.str();
      s.attrs.emplace_back(std::move(k), std::move(v));
    }
    m.spans.push_back(std::move(s));
  }
  if (!r.at_end()) return corrupt("manifest has extra bytes");
  return m;
}

// ----------------------------------------------------------- campaigns

namespace {

void put_verdict(ByteWriter& w, const sim::FaultVerdict& v) {
  w.u64(v.unit);
  w.u64(v.activations);
  w.u64(v.detected_in_bound);
  w.u64(v.detected_late);
  w.u64(v.silent_escape);
  w.u32(static_cast<std::uint32_t>(v.max_latency));
  w.u32(static_cast<std::uint32_t>(v.histogram.size()));
  for (const std::uint64_t h : v.histogram) w.u64(h);
}

bool get_verdict(ByteReader& r, sim::FaultVerdict& v) {
  v.unit = r.u64();
  v.activations = r.u64();
  v.detected_in_bound = r.u64();
  v.detected_late = r.u64();
  v.silent_escape = r.u64();
  v.max_latency = static_cast<int>(r.u32());
  const std::uint32_t hist = r.u32();
  if (!r.ok() || hist > 64) return false;
  v.histogram.reserve(hist);
  for (std::uint32_t i = 0; i < hist; ++i) v.histogram.push_back(r.u64());
  return r.ok();
}

}  // namespace

std::string encode_campaign_shard(const sim::CampaignShard& shard) {
  ArtifactWriter art(ArtifactKind::kCampaignShard);
  ByteWriter w;
  w.u32(shard.index);
  w.u32(shard.num_shards);
  w.u64(shard.verdicts.size());
  for (const sim::FaultVerdict& v : shard.verdicts) put_verdict(w, v);
  art.section(kTagCampaignShard, w.take());
  return art.seal();
}

Result<sim::CampaignShard> decode_campaign_shard(std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kCampaignShard);
  if (!art) return art.status();
  auto payload = art->section(kTagCampaignShard);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  sim::CampaignShard shard;
  shard.index = r.u32();
  shard.num_shards = r.u32();
  const std::uint64_t count = r.u64();
  if (!r.ok() || shard.index >= shard.num_shards || count > (1u << 24)) {
    return corrupt("campaign shard header malformed");
  }
  shard.verdicts.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_verdict(r, shard.verdicts[i])) {
      return corrupt("campaign shard verdict malformed");
    }
  }
  if (!r.at_end()) return corrupt("campaign shard has extra bytes");
  return shard;
}

std::string encode_campaign_report(const sim::CampaignReport& rep) {
  ArtifactWriter art(ArtifactKind::kCampaignReport);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(rep.model));
  w.u32(static_cast<std::uint32_t>(rep.policy));
  w.u32(static_cast<std::uint32_t>(rep.latency_bound));
  w.u32(static_cast<std::uint32_t>(rep.horizon));
  w.u32(static_cast<std::uint32_t>(rep.persistence));
  w.u32(static_cast<std::uint32_t>(rep.flip_bits));
  w.u32(static_cast<std::uint32_t>(rep.walks));
  w.u32(static_cast<std::uint32_t>(rep.walk_length));
  w.u64(rep.seed);
  w.u64(rep.num_units);
  w.u64(rep.activations);
  w.u64(rep.detected_in_bound);
  w.u64(rep.detected_late);
  w.u64(rep.silent_escape);
  w.u64(rep.benign_units);
  w.u64(rep.false_alarms);
  w.u32(static_cast<std::uint32_t>(rep.max_latency));
  w.u32(static_cast<std::uint32_t>(rep.histogram.size()));
  for (const std::uint64_t h : rep.histogram) w.u64(h);
  w.u8(rep.truncated ? 1 : 0);
  w.str(rep.truncation_reason);
  w.u64(rep.verdicts.size());
  for (const sim::FaultVerdict& v : rep.verdicts) put_verdict(w, v);
  art.section(kTagCampaignReport, w.take());
  return art.seal();
}

Result<sim::CampaignReport> decode_campaign_report(std::string_view bytes) {
  auto art = ArtifactReader::open(bytes, ArtifactKind::kCampaignReport);
  if (!art) return art.status();
  auto payload = art->section(kTagCampaignReport);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  sim::CampaignReport rep;
  const std::uint32_t model = r.u32();
  const std::uint32_t policy = r.u32();
  rep.latency_bound = static_cast<int>(r.u32());
  rep.horizon = static_cast<int>(r.u32());
  rep.persistence = static_cast<int>(r.u32());
  rep.flip_bits = static_cast<int>(r.u32());
  rep.walks = static_cast<int>(r.u32());
  rep.walk_length = static_cast<int>(r.u32());
  rep.seed = r.u64();
  rep.num_units = r.u64();
  rep.activations = r.u64();
  rep.detected_in_bound = r.u64();
  rep.detected_late = r.u64();
  rep.silent_escape = r.u64();
  rep.benign_units = r.u64();
  rep.false_alarms = r.u64();
  rep.max_latency = static_cast<int>(r.u32());
  if (!r.ok() || model > 2 || policy > 1) {
    return corrupt("campaign report header malformed");
  }
  rep.model = static_cast<sim::FaultModel>(model);
  rep.policy = static_cast<sim::CampaignPolicy>(policy);
  const std::uint32_t hist = r.u32();
  if (!r.ok() || hist > 64) return corrupt("campaign report histogram malformed");
  for (std::uint32_t i = 0; i < hist; ++i) rep.histogram.push_back(r.u64());
  rep.truncated = r.u8() != 0;
  rep.truncation_reason = r.str();
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > (1u << 24)) {
    return corrupt("campaign report verdict count malformed");
  }
  rep.verdicts.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_verdict(r, rep.verdicts[i])) {
      return corrupt("campaign report verdict malformed");
    }
  }
  if (!r.at_end()) return corrupt("campaign report has extra bytes");
  return rep;
}

}  // namespace ced::storage
