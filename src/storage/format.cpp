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

constexpr std::uint32_t kTagTables = tag4('T', 'A', 'B', '_');
constexpr std::uint32_t kTagShard = tag4('S', 'H', 'R', 'D');
constexpr std::uint32_t kTagScheme = tag4('S', 'C', 'H', 'M');
constexpr std::uint32_t kTagManifest = tag4('M', 'A', 'N', 'F');
constexpr std::uint32_t kTagCampaignShard = tag4('C', 'S', 'H', 'D');
constexpr std::uint32_t kTagCampaignReport = tag4('C', 'R', 'P', 'T');

Status corrupt(const std::string& what) {
  return Status::invalid_input(Stage::kStore, what);
}

// The manifest's resilience-report layout.
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
    case ArtifactKind::kTableBundle: return "table-bundle";
    case ArtifactKind::kParityScheme: return "parity-scheme";
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

/// The bytes form of a decoder: opens the envelope as `kind`, checking
/// every CRC once, then decodes from that reader.
template <typename T>
Result<T> open_and_decode(std::string_view bytes, ArtifactKind kind,
                          Result<T> (*decode)(const ArtifactReader&)) {
  auto art = ArtifactReader::open(bytes, kind);
  if (!art) return art.status();
  return decode(*art);
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
    const int len = ec.length();
    w.u8(static_cast<std::uint8_t>(len));
    for (int k = 0; k < len; ++k) {
      w.u64(ec.diff[static_cast<std::size_t>(k)]);
    }
  }
}

/// put_table's size of the shortest case: its length byte and one word.
constexpr std::size_t kMinCaseBytes = 1 + 8;

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
      t.latency > core::kMaxLatency || cases > r.remaining() / kMinCaseBytes) {
    return false;
  }
  t.cases.clear();
  t.cases.reserve(static_cast<std::size_t>(cases));
  for (std::uint64_t i = 0; i < cases; ++i) {
    core::ErroneousCase ec;
    const int len = r.u8();
    if (!r.ok() || len < 1 || len > core::kMaxLatency) return false;
    for (int k = 0; k < len; ++k) {
      ec.diff[static_cast<std::size_t>(k)] = r.u64();
    }
    // A zero word inside the stored length would leave the case's words
    // unpacked: its length() would not be the stored one.
    if (!r.ok() || ec.length() != len) return false;
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
  return open_and_decode(bytes, ArtifactKind::kTableBundle, decode_tables);
}

Result<std::vector<core::DetectabilityTable>> decode_tables(
    const ArtifactReader& art) {
  auto payload = art.section(kTagTables);
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
  return open_and_decode(bytes, ArtifactKind::kShard, decode_shard);
}

Result<core::ExtractShard> decode_shard(const ArtifactReader& art) {
  auto payload = art.section(kTagShard);
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
  return open_and_decode(bytes, ArtifactKind::kParityScheme, decode_scheme);
}

Result<SchemeArtifact> decode_scheme(const ArtifactReader& art) {
  auto payload = art.section(kTagScheme);
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
  return open_and_decode(bytes, ArtifactKind::kManifest, decode_manifest);
}

Result<ManifestArtifact> decode_manifest(const ArtifactReader& art) {
  auto payload = art.section(kTagManifest);
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

/// put_verdict's size with an empty histogram: five u64s and two u32s.
constexpr std::size_t kMinVerdictBytes = 5 * 8 + 2 * 4;

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
  return open_and_decode(bytes, ArtifactKind::kCampaignShard,
                         decode_campaign_shard);
}

Result<sim::CampaignShard> decode_campaign_shard(const ArtifactReader& art) {
  auto payload = art.section(kTagCampaignShard);
  if (!payload) return payload.status();
  ByteReader r(*payload);
  sim::CampaignShard shard;
  shard.index = r.u32();
  shard.num_shards = r.u32();
  const std::uint64_t count = r.u64();
  if (!r.ok() || shard.index >= shard.num_shards || count > (1u << 24) ||
      count > r.remaining() / kMinVerdictBytes) {
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
  return open_and_decode(bytes, ArtifactKind::kCampaignReport,
                         decode_campaign_report);
}

Result<sim::CampaignReport> decode_campaign_report(const ArtifactReader& art) {
  auto payload = art.section(kTagCampaignReport);
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
  // Model 2 is retired, and each model has one policy.
  rep.model = static_cast<sim::FaultModel>(model);
  rep.policy = static_cast<sim::CampaignPolicy>(policy);
  if (!r.ok() || model > 1 || rep.policy != sim::policy_of(rep.model)) {
    return corrupt("campaign report header malformed");
  }
  const std::uint32_t hist = r.u32();
  if (!r.ok() || hist > 64) return corrupt("campaign report histogram malformed");
  for (std::uint32_t i = 0; i < hist; ++i) rep.histogram.push_back(r.u64());
  rep.truncated = r.u8() != 0;
  rep.truncation_reason = r.str();
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > (1u << 24) ||
      count > r.remaining() / kMinVerdictBytes) {
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
