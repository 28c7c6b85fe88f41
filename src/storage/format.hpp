#pragma once

// Versioned, corruption-detecting binary artifact format.
//
// Envelope layout (little-endian):
//   magic   "CEDA"                      4 bytes
//   u16     format version (kFormatVersion)
//   u16     artifact kind (ArtifactKind)
//   u32     section count
//   then per section:
//     u32   tag          (FourCC-ish section id)
//     u64   payload size
//     u32   CRC32 of the payload bytes
//     payload
//
// Every reader path is bounds-checked and returns a classified Status on
// magic/version/kind mismatch, truncation, or a CRC failure — a bit-flipped
// or half-written artifact is *detected*, never silently decoded. The
// store layer (store.hpp) quarantines files this module rejects.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/extract.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"

namespace ced::storage {

inline constexpr char kMagic[4] = {'C', 'E', 'D', 'A'};
inline constexpr std::uint16_t kFormatVersion = 1;

/// The kinds the store writes. Ids 1, 2 and 5 are reserved: they named
/// circuit, fault-list and report artifacts that nothing wrote, and an
/// artifact claiming one of them fails every kind check.
enum class ArtifactKind : std::uint16_t {
  kTableBundle = 3,
  kParityScheme = 4,
  kShard = 6,
  kManifest = 7,
  kCampaignShard = 8,
  kCampaignReport = 9,
};

const char* to_string(ArtifactKind k);

// ----------------------------------------------------------- byte streams

/// Append-only little-endian byte buffer used by every encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);  ///< u64 length + bytes
  void bytes(std::string_view s) { out_.append(s); }

  const std::string& data() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over an encoded payload. Every accessor reports
/// underflow through ok()/status() instead of reading past the end; callers
/// check once at the end of a decode.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  /// True while no read has run past the end.
  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == data_.size(); }
  /// Bytes not yet read. A decoder bounds a stored count by it before
  /// allocating, so a corrupt count cannot ask for more records than the
  /// payload could hold.
  std::size_t remaining() const { return data_.size() - pos_; }
  Status status(const std::string& what) const;

 private:
  bool take(std::size_t n, const char** p);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// -------------------------------------------------------------- envelope

/// Builds an artifact: sections are appended, then seal() produces the
/// final byte string with the envelope header and per-section CRC32s.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(ArtifactKind kind) : kind_(kind) {}

  void section(std::uint32_t tag, std::string payload);
  std::string seal() const;

 private:
  ArtifactKind kind_;
  std::vector<std::pair<std::uint32_t, std::string>> sections_;
};

/// Parses and integrity-checks an artifact envelope. `expected_kind`
/// mismatches, unknown versions, truncation and CRC failures all yield a
/// Status naming the problem.
class ArtifactReader {
 public:
  static Result<ArtifactReader> open(std::string_view bytes,
                                     ArtifactKind expected_kind);

  /// Payload of the first section with `tag`, or a Status when absent.
  Result<std::string_view> section(std::uint32_t tag) const;
  std::size_t num_sections() const { return sections_.size(); }
  ArtifactKind kind() const { return kind_; }

 private:
  ArtifactKind kind_ = ArtifactKind::kTableBundle;
  std::vector<std::pair<std::uint32_t, std::string_view>> sections_;
};

/// Envelope-only integrity check (any kind): used by `store verify` scans.
Status validate_envelope(std::string_view bytes);

// ------------------------------------------------------------ serializers
//
// Each encoder produces a complete artifact (envelope included); each
// decoder validates the envelope and every field. encode(decode(bytes))
// reproduces `bytes` exactly — the format is canonical, which is what lets
// tests assert byte-identity of resumed runs. Every decoder also takes an
// ArtifactReader already opened as its kind, so a caller that opened the
// envelope (the store's checked load) does not check the CRCs again.

std::string encode_tables(const std::vector<core::DetectabilityTable>& tabs);
Result<std::vector<core::DetectabilityTable>> decode_tables(
    std::string_view bytes);
Result<std::vector<core::DetectabilityTable>> decode_tables(
    const ArtifactReader& art);

std::string encode_shard(const core::ExtractShard& shard);
Result<core::ExtractShard> decode_shard(std::string_view bytes);
Result<core::ExtractShard> decode_shard(const ArtifactReader& art);

/// A parity scheme as stored for later re-validation: the latency bound it
/// was selected for plus the masks.
struct SchemeArtifact {
  int latency = 0;
  std::vector<core::ParityFunc> parities;
};

std::string encode_scheme(const SchemeArtifact& s);
Result<SchemeArtifact> decode_scheme(std::string_view bytes);
Result<SchemeArtifact> decode_scheme(const ArtifactReader& art);

/// The signed-off record of one pipeline run: which configuration ran
/// (RunConfig::digest()), on which extraction input (the content-addressed
/// extraction key), what it decided (cascade levels, degradation events,
/// store incidents), what it produced (q and the parity masks), and how
/// long each stage took — including the stage span tree when the run was
/// traced. Everything a later session needs to audit or reproduce the run
/// without re-running it.
struct ManifestArtifact {
  std::string config_digest;    ///< RunConfig::digest() fingerprint
  std::string extraction_key;   ///< extraction_digest(); "" without archive
  std::string circuit;          ///< human label (CLI argument)
  int latency = 0;
  int threads = 0;              ///< execution context, informational only
  std::vector<core::ParityFunc> parities;
  core::ResilienceReport resilience;
  double t_synth = 0, t_extract = 0, t_solve = 0, t_ced = 0;
  /// Completed spans of the run (empty when tracing was off).
  std::vector<obs::SpanRecord> spans;
};

std::string encode_manifest(const ManifestArtifact& m);
Result<ManifestArtifact> decode_manifest(std::string_view bytes);
Result<ManifestArtifact> decode_manifest(const ArtifactReader& art);

/// Campaign checkpoint shard / verdict sheet round-trips. Like every other
/// codec these are canonical (encode(decode(bytes)) == bytes), which is
/// what the campaign's byte-identity acceptance checks compare.
std::string encode_campaign_shard(const sim::CampaignShard& shard);
Result<sim::CampaignShard> decode_campaign_shard(std::string_view bytes);
Result<sim::CampaignShard> decode_campaign_shard(const ArtifactReader& art);

std::string encode_campaign_report(const sim::CampaignReport& rep);
Result<sim::CampaignReport> decode_campaign_report(std::string_view bytes);
Result<sim::CampaignReport> decode_campaign_report(const ArtifactReader& art);

}  // namespace ced::storage
