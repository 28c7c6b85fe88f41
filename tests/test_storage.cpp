// Fault-injection harness for the artifact store: round-trip every
// artifact kind through its canonical encoding, then attack the bytes
// (bit flips at every offset, truncation at every length, version bumps)
// and assert each attack is *detected* — quarantined and recomputed, never
// silently decoded into a wrong answer.

#include "storage/store.hpp"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "benchdata/handwritten.hpp"
#include "common/io.hpp"
#include "core/parity_synth.hpp"
#include "core/pipeline.hpp"
#include "core/run.hpp"
#include "kiss/kiss.hpp"
#include "sim/campaign.hpp"
#include "sim/faults.hpp"
#include "storage/format.hpp"

namespace ced::storage {
namespace {

namespace fs = std::filesystem;

fsm::FsmCircuit circuit_for(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
}

std::vector<core::DetectabilityTable> tables_for(const fsm::FsmCircuit& c,
                                                 int latency) {
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::ExtractOptions opts;
  opts.latency = latency;
  return core::extract_cases_multi(c, faults, opts);
}

/// Every test gets a private store directory, removed unconditionally in
/// TearDown so ctest leaves no quarantine/ or temp litter behind.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char buf[] = "/tmp/ced_store_test_XXXXXX";
    ASSERT_NE(::mkdtemp(buf), nullptr);
    dir_ = buf;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void write_raw(const std::string& name, const std::string& bytes) {
    std::ofstream out(dir_ / (name + ".ced"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string read_raw(const std::string& name) {
    auto r = io::read_file(dir_ / (name + ".ced"));
    EXPECT_TRUE(r.has_value()) << r.status().to_text();
    return r ? *r : std::string();
  }

  fs::path dir_;
};

// ------------------------------------------------------------ round trips

TEST_F(StorageTest, TableBundleRoundTripIsCanonical) {
  const auto tabs = tables_for(circuit_for("traffic"), 2);
  const std::string bytes = encode_tables(tabs);
  auto decoded = decode_tables(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_text();
  ASSERT_EQ(decoded->size(), tabs.size());
  for (std::size_t i = 0; i < tabs.size(); ++i) {
    EXPECT_EQ((*decoded)[i].cases, tabs[i].cases);
    EXPECT_EQ((*decoded)[i].num_bits, tabs[i].num_bits);
    EXPECT_EQ((*decoded)[i].latency, tabs[i].latency);
    EXPECT_EQ((*decoded)[i].num_faults, tabs[i].num_faults);
    EXPECT_EQ((*decoded)[i].num_detectable_faults,
              tabs[i].num_detectable_faults);
    EXPECT_EQ((*decoded)[i].num_activations, tabs[i].num_activations);
    EXPECT_EQ((*decoded)[i].num_paths, tabs[i].num_paths);
    EXPECT_EQ((*decoded)[i].truncated, tabs[i].truncated);
  }
  EXPECT_EQ(encode_tables(*decoded), bytes);
}

TEST_F(StorageTest, ShardRoundTripIsCanonical) {
  core::ExtractShard shard;
  shard.index = 3;
  shard.num_shards = 16;
  shard.tables = tables_for(circuit_for("modulo5"), 2);
  const std::string bytes = encode_shard(shard);
  auto decoded = decode_shard(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_text();
  EXPECT_EQ(decoded->index, 3u);
  EXPECT_EQ(decoded->num_shards, 16u);
  ASSERT_EQ(decoded->tables.size(), shard.tables.size());
  EXPECT_EQ(decoded->tables[1].cases, shard.tables[1].cases);
  EXPECT_EQ(encode_shard(*decoded), bytes);
}

TEST_F(StorageTest, SchemeRoundTripIsCanonicalAndVerifies) {
  // Full loop: pipeline -> store scheme -> load -> synthesize the checker
  // from *deserialized* parities -> sequential bounded-detection proof.
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("traffic")));
  core::PipelineOptions opts;
  opts.latency = 2;
  opts.exec.threads = 1;
  const core::PipelineReport rep = ced::run_pipeline(f, ced::RunConfig::wrap(opts));
  ASSERT_FALSE(rep.resilience.degraded());

  SchemeArtifact scheme;
  scheme.latency = rep.latency;
  scheme.parities = rep.parities;
  const std::string bytes = encode_scheme(scheme);
  auto decoded = decode_scheme(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_text();
  EXPECT_EQ(decoded->latency, scheme.latency);
  EXPECT_EQ(decoded->parities, scheme.parities);
  EXPECT_EQ(encode_scheme(*decoded), bytes);

  ArtifactStore store(dir_);
  ASSERT_TRUE(store_scheme(store, "scheme-test", scheme).ok());
  auto loaded = load_scheme(store, "scheme-test");
  ASSERT_TRUE(loaded.has_value()) << loaded.status().to_text();

  const core::Design d = core::derive_design(f, opts);
  const core::CedHardware hw =
      core::synthesize_ced(d.circuit, loaded->parities, opts.ced);
  sim::CampaignOptions co;
  co.latency_bound = loaded->latency;
  const sim::CampaignReport cr =
      sim::run_campaign(d.circuit, hw, d.faults, co);
  EXPECT_TRUE(cr.bound_holds())
      << cr.detected_late + cr.silent_escape << " violations, "
      << cr.false_alarms << " false alarms";
}

ManifestArtifact sample_manifest() {
  ManifestArtifact man;
  man.config_digest = "0123456789abcdef0123456789abcdef";
  man.extraction_key = "deadbeefdeadbeefdeadbeefdeadbeef";
  man.circuit = "traffic";
  man.latency = 2;
  man.threads = 4;
  man.parities = {0x12, 0x50, 0x2b};
  man.resilience.status = Status::truncated(Stage::kLp, "lp budget");
  man.resilience.solver_used = core::CascadeLevel::kGreedy;
  core::FallbackEvent ev;
  ev.stage = Stage::kLp;
  ev.reason = StatusCode::kTruncated;
  ev.detail = "fell back to greedy";
  ev.seconds = 0.25;
  man.resilience.events.push_back(ev);
  man.resilience.store_events.push_back("quarantined tab-x.ced: crc");
  man.t_synth = 0.01;
  man.t_extract = 1.25;
  man.t_solve = 0.5;
  man.t_ced = 0.02;
  obs::SpanRecord root;
  root.id = 1;
  root.name = "pipeline";
  root.dur_s = 1.78;
  obs::SpanRecord child;
  child.id = 2;
  child.parent = 1;
  child.name = "solve";
  child.start_s = 1.26;
  child.dur_s = 0.5;
  child.attrs.emplace_back("q", "3");
  child.attrs.emplace_back("cascade", "greedy");
  man.spans = {root, child};
  return man;
}

TEST_F(StorageTest, ManifestRoundTripIsCanonical) {
  const ManifestArtifact man = sample_manifest();
  const std::string bytes = encode_manifest(man);
  auto decoded = decode_manifest(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_text();
  EXPECT_EQ(decoded->config_digest, man.config_digest);
  EXPECT_EQ(decoded->extraction_key, man.extraction_key);
  EXPECT_EQ(decoded->circuit, man.circuit);
  EXPECT_EQ(decoded->latency, man.latency);
  EXPECT_EQ(decoded->threads, man.threads);
  EXPECT_EQ(decoded->parities, man.parities);
  EXPECT_EQ(decoded->resilience.status.code, StatusCode::kTruncated);
  EXPECT_EQ(decoded->resilience.solver_used, core::CascadeLevel::kGreedy);
  ASSERT_EQ(decoded->resilience.events.size(), 1u);
  EXPECT_EQ(decoded->resilience.events[0].detail, "fell back to greedy");
  EXPECT_EQ(decoded->resilience.store_events, man.resilience.store_events);
  EXPECT_EQ(decoded->t_extract, man.t_extract);
  ASSERT_EQ(decoded->spans.size(), 2u);
  EXPECT_EQ(decoded->spans[0].name, "pipeline");
  EXPECT_EQ(decoded->spans[1].parent, 1u);
  EXPECT_EQ(decoded->spans[1].attrs, man.spans[1].attrs);
  EXPECT_EQ(decoded->spans[1].start_s, man.spans[1].start_s);
  EXPECT_EQ(encode_manifest(*decoded), bytes);
}

TEST_F(StorageTest, ManifestStoreLoadAndQuarantineOnCorruption) {
  ArtifactStore store(dir_);
  const ManifestArtifact man = sample_manifest();
  const std::string name = manifest_name(man.extraction_key, man.latency,
                                         core::SolverKind::kGreedy);
  EXPECT_EQ(name, "man-" + man.extraction_key + "-p2-greedy");
  ASSERT_TRUE(store_manifest(store, name, man).ok());

  auto loaded = load_manifest(store, name);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().to_text();
  EXPECT_EQ(loaded->config_digest, man.config_digest);
  EXPECT_EQ(loaded->spans.size(), man.spans.size());

  // Flip a byte on disk: the load must fail AND quarantine the file.
  std::string bytes = read_raw(name);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x08);
  write_raw(name, bytes);
  EXPECT_FALSE(load_manifest(store, name).has_value());
  EXPECT_FALSE(store.exists(name));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / (name + ".ced")));
}

// ------------------------------------------------------------- atomic I/O

TEST_F(StorageTest, AtomicWriteLeavesNoTempFilesAndRoundTrips) {
  const fs::path p = dir_ / "artifact.ced";
  const std::string payload = "hello artifact \x01\x02\x03";
  ASSERT_TRUE(io::atomic_write_file(p, payload).ok());
  auto back = io::read_file(p);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
        << "stray temp file: " << e.path();
  }
  // Overwrite is atomic too.
  ASSERT_TRUE(io::atomic_write_file(p, "v2").ok());
  EXPECT_EQ(*io::read_file(p), "v2");
}

// ----------------------------------------------------- corruption attacks

TEST_F(StorageTest, EverySingleBitFlipIsDetected) {
  const auto tabs = tables_for(circuit_for("modulo5"), 1);
  const std::string bytes = encode_tables(tabs);
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    for (int bit = 0; bit < 8; bit += 3) {  // 3 of 8 bits: still every byte
      std::string mutated = bytes;
      mutated[off] = static_cast<char>(mutated[off] ^ (1 << bit));
      auto decoded = decode_tables(mutated);
      EXPECT_FALSE(decoded.has_value())
          << "flip at byte " << off << " bit " << bit << " went undetected";
    }
  }
}

TEST_F(StorageTest, EveryTruncationIsDetected) {
  const auto tabs = tables_for(circuit_for("modulo5"), 1);
  const std::string bytes = encode_tables(tabs);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = decode_tables(bytes.substr(0, len));
    EXPECT_FALSE(decoded.has_value())
        << "truncation to " << len << " bytes went undetected";
  }
}

TEST_F(StorageTest, VersionBumpIsRejectedWithClearMessage) {
  const std::string bytes = encode_scheme({2, {0x3}});
  std::string mutated = bytes;
  mutated[4] = static_cast<char>(kFormatVersion + 1);  // little-endian u16
  auto decoded = decode_scheme(mutated);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_NE(decoded.status().message.find("version"), std::string::npos)
      << decoded.status().message;
  EXPECT_TRUE(validate_envelope(bytes).ok());
  EXPECT_FALSE(validate_envelope(mutated).ok());
}

TEST_F(StorageTest, CorruptArtifactIsQuarantinedAndBecomesMiss) {
  ArtifactStore store(dir_);
  const auto tabs = tables_for(circuit_for("modulo5"), 1);
  ASSERT_TRUE(store.put("tab-key", encode_tables(tabs)).ok());

  // Flip one byte in the middle of the file on disk.
  std::string bytes = read_raw("tab-key");
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  write_raw("tab-key", bytes);

  auto got = store.get_validated("tab-key", ArtifactKind::kTableBundle);
  EXPECT_FALSE(got.has_value());
  EXPECT_FALSE(store.exists("tab-key"));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "tab-key.ced"));
  const auto events = store.drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("quarantined"), std::string::npos) << events[0];
  // A second read is a plain miss, with no further incident.
  EXPECT_FALSE(
      store.get_validated("tab-key", ArtifactKind::kTableBundle).has_value());
  EXPECT_TRUE(store.drain_events().empty());
}

TEST_F(StorageTest, KindMismatchIsQuarantined) {
  ArtifactStore store(dir_);
  ASSERT_TRUE(store.put("scheme-x", encode_tables({})).ok());
  EXPECT_FALSE(
      store.get_validated("scheme-x", ArtifactKind::kParityScheme).has_value());
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "scheme-x.ced"));
}

TEST_F(StorageTest, VerifyAllAndGcSweepTheStore) {
  ArtifactStore store(dir_);
  const auto tabs = tables_for(circuit_for("modulo5"), 1);
  ASSERT_TRUE(store.put("tab-aaa", encode_tables(tabs)).ok());
  ASSERT_TRUE(store.put("tab-bbb", encode_tables(tabs)).ok());
  core::ExtractShard shard;
  shard.index = 0;
  shard.num_shards = 4;
  shard.tables = tabs;
  ASSERT_TRUE(store.put(shard_name("aaa", 0), encode_shard(shard)).ok());

  // Corrupt one table; drop a stray atomic-write temp file.
  std::string bytes = read_raw("tab-bbb");
  bytes[10] = static_cast<char>(bytes[10] ^ 0x01);
  write_raw("tab-bbb", bytes);
  { std::ofstream tmp(dir_ / "tab-ccc.ced.tmp.1234"); tmp << "partial"; }

  const VerifyStats vs = store.verify_all();
  EXPECT_EQ(vs.scanned, 3u);
  EXPECT_EQ(vs.ok, 2u);
  EXPECT_EQ(vs.quarantined, 1u);
  EXPECT_FALSE(store.drain_events().empty());

  const GcStats gc = store.gc();
  EXPECT_EQ(gc.tmp_removed, 1u);
  EXPECT_EQ(gc.quarantine_removed, 1u);
  // shard-aaa-000 is superseded by tab-aaa.
  EXPECT_EQ(gc.stale_shards_removed, 1u);
  EXPECT_TRUE(store.exists("tab-aaa"));
  EXPECT_FALSE(store.exists(shard_name("aaa", 0)));
}

constexpr ArtifactKind kWrittenKinds[] = {
    ArtifactKind::kTableBundle,   ArtifactKind::kParityScheme,
    ArtifactKind::kShard,         ArtifactKind::kManifest,
    ArtifactKind::kCampaignShard, ArtifactKind::kCampaignReport};

TEST_F(StorageTest, ReservedKindsFailEveryKindCheck) {
  ArtifactStore store(dir_);
  for (const std::uint16_t id : {1, 2, 5}) {
    ArtifactWriter w(static_cast<ArtifactKind>(id));
    w.section(1, "payload");
    const std::string bytes = w.seal();
    for (const ArtifactKind kind : kWrittenKinds) {
      auto opened = ArtifactReader::open(bytes, kind);
      ASSERT_FALSE(opened.has_value()) << "id " << id;
      EXPECT_NE(opened.status().message.find("kind mismatch"),
                std::string::npos)
          << opened.status().message;
    }
    const std::string name = "reserved-" + std::to_string(id);
    ASSERT_TRUE(store.put(name, bytes).ok());
    EXPECT_FALSE(
        store.get_validated(name, ArtifactKind::kParityScheme).has_value());
    EXPECT_FALSE(store.exists(name));
    EXPECT_TRUE(fs::exists(dir_ / "quarantine" / (name + ".ced")));
  }
}

TEST_F(StorageTest, EveryLoaderQuarantinesAnUndecodablePayload) {
  // Each artifact passes the envelope check (right kind, intact CRCs) but
  // carries no section, so only the decoder can reject it.
  ArtifactStore store(dir_);
  StoreArchive archive(store);
  const ShardHooks<sim::CampaignShard> hooks =
      make_campaign_hooks(store, "k");
  for (const ArtifactKind kind : kWrittenKinds) {
    std::string name;
    bool loaded = true;
    switch (kind) {
      case ArtifactKind::kTableBundle:
        name = table_name("k");
        ASSERT_TRUE(store.put(name, ArtifactWriter(kind).seal()).ok());
        loaded = !archive.load_tables("k").empty();
        break;
      case ArtifactKind::kParityScheme:
        name = "scheme-k";
        ASSERT_TRUE(store.put(name, ArtifactWriter(kind).seal()).ok());
        loaded = load_scheme(store, name).has_value();
        break;
      case ArtifactKind::kShard: {
        name = shard_name("k", 0);
        ASSERT_TRUE(store.put(name, ArtifactWriter(kind).seal()).ok());
        core::ExtractShard out;
        loaded = archive.shard_hooks("k").load(0, 1, out);
        break;
      }
      case ArtifactKind::kManifest:
        name = "man-k";
        ASSERT_TRUE(store.put(name, ArtifactWriter(kind).seal()).ok());
        loaded = load_manifest(store, name).has_value();
        break;
      case ArtifactKind::kCampaignShard: {
        name = campaign_shard_name("k", 0);
        ASSERT_TRUE(store.put(name, ArtifactWriter(kind).seal()).ok());
        sim::CampaignShard out;
        loaded = hooks.load(0, 1, out);
        break;
      }
      case ArtifactKind::kCampaignReport:
        name = campaign_report_name("k");
        ASSERT_TRUE(store.put(name, ArtifactWriter(kind).seal()).ok());
        loaded = load_campaign_report(store, name).has_value();
        break;
    }
    EXPECT_FALSE(loaded) << to_string(kind);
    EXPECT_FALSE(store.exists(name)) << name;
    EXPECT_TRUE(fs::exists(dir_ / "quarantine" / (name + ".ced"))) << name;
    const auto events = store.drain_events();
    ASSERT_EQ(events.size(), 1u) << name;
    EXPECT_NE(events[0].find("required section missing"), std::string::npos)
        << events[0];
  }
}

TEST_F(StorageTest, ShardOfAnotherPartitionIsQuarantined) {
  ArtifactStore store(dir_);
  StoreArchive archive(store);
  core::ExtractShard shard;
  shard.index = 1;
  shard.num_shards = 4;
  shard.tables = tables_for(circuit_for("modulo5"), 1);
  const ShardHooks<core::ExtractShard> shard_hooks =
      archive.shard_hooks("aaa");
  shard_hooks.save(shard);
  core::ExtractShard out;
  ASSERT_TRUE(shard_hooks.load(1, 4, out));
  EXPECT_EQ(encode_shard(out), encode_shard(shard));
  // The same file read as shard 1 of 8 belongs to another partition.
  EXPECT_FALSE(shard_hooks.load(1, 8, out));
  EXPECT_FALSE(store.exists(shard_name("aaa", 1)));
  EXPECT_TRUE(
      fs::exists(dir_ / "quarantine" / (shard_name("aaa", 1) + ".ced")));
  auto events = archive.drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("shard identity mismatch"), std::string::npos)
      << events[0];

  // Campaign checkpoints pass the same identity check.
  const ShardHooks<sim::CampaignShard> hooks =
      make_campaign_hooks(store, "bbb");
  sim::CampaignShard cshard;
  cshard.index = 2;
  cshard.num_shards = 3;
  hooks.save(cshard);
  sim::CampaignShard cloaded;
  ASSERT_TRUE(hooks.load(2, 3, cloaded));
  EXPECT_EQ(encode_campaign_shard(cloaded), encode_campaign_shard(cshard));
  EXPECT_FALSE(hooks.load(2, 5, cloaded));
  EXPECT_FALSE(store.exists(campaign_shard_name("bbb", 2)));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" /
                         (campaign_shard_name("bbb", 2) + ".ced")));
  events = store.drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("campaign shard identity mismatch"),
            std::string::npos)
      << events[0];
}

TEST_F(StorageTest, ShardSweepsRemoveOnlyTheirOwnKeysShards) {
  ArtifactStore store(dir_);
  StoreArchive archive(store);
  const auto tabs = tables_for(circuit_for("modulo5"), 1);
  core::ExtractShard shard;
  shard.num_shards = 2;
  shard.tables = tabs;
  sim::CampaignShard cshard;
  cshard.num_shards = 2;
  // "aaab" shares "aaa" as a prefix of its key.
  for (const std::string key : {"aaa", "aaab"}) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      shard.index = i;
      archive.shard_hooks(key).save(shard);
      cshard.index = i;
      ASSERT_TRUE(store.put(campaign_shard_name(key, i),
                            encode_campaign_shard(cshard))
                      .ok());
    }
  }
  archive.store_tables("aaa", tabs);

  archive.drop_shards("aaa");
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(store.exists(shard_name("aaa", i)));
    EXPECT_TRUE(store.exists(shard_name("aaab", i)));
    EXPECT_TRUE(store.exists(campaign_shard_name("aaa", i)));
  }
  EXPECT_TRUE(store.exists(table_name("aaa")));

  drop_campaign_shards(store, "aaab");
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(store.exists(campaign_shard_name("aaab", i)));
    EXPECT_TRUE(store.exists(campaign_shard_name("aaa", i)));
    EXPECT_TRUE(store.exists(shard_name("aaab", i)));
  }

  // A verdict sheet supersedes its own key's campaign shards only; the
  // table shards of "aaab" have no bundle and stay.
  ASSERT_TRUE(store_campaign_report(store, campaign_report_name("aaa"),
                                    sim::CampaignReport{})
                  .ok());
  const GcStats gc = store.gc();
  EXPECT_EQ(gc.stale_shards_removed, 2u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(store.exists(campaign_shard_name("aaa", i)));
    EXPECT_TRUE(store.exists(shard_name("aaab", i)));
  }
}

// ------------------------------------------------- pipeline integration

// Contracts of the run-level scheme API (record_run and the loaders).
using Storage = StorageTest;

TEST_F(Storage, RecordedSchemeIsFoundByTheLoader) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("traffic")));
  ArtifactStore store(dir_);
  StoreArchive archive(store);
  const ced::RunConfig cfg =
      *ced::RunConfig::Builder().latency(2).threads(1).archive(&archive)
           .build();
  const core::PipelineReport rep = ced::run_pipeline(f, cfg);
  ASSERT_FALSE(rep.resilience.degraded());
  const std::string man = record_run(store, cfg, rep, "traffic", {});
  ASSERT_TRUE(load_manifest(store, man).has_value());

  // The loader derives the key from the same options: it is the run's.
  const core::Design design = core::derive_design(f, cfg.options());
  EXPECT_EQ(core::extraction_key(design, cfg.options(), 2),
            rep.extraction_key);
  const StoredScheme found = load_stored_checker(store, design, cfg.options());
  ASSERT_TRUE(found.scheme.has_value()) << found.scheme.status().to_text();
  EXPECT_EQ(found.scheme->latency, 2);
  EXPECT_EQ(found.scheme->parities, rep.parities);
  EXPECT_EQ(found.hw.parities, rep.parities);
  EXPECT_EQ(found.hw.checker.num_nets(), rep.hw.checker.num_nets());

  // Binding an archive is not part of the key.
  const ced::RunConfig plain = *ced::RunConfig::Builder().latency(2).build();
  EXPECT_TRUE(load_stored_scheme(store, design, plain.options()).scheme);

  // Another checkpoint partition is another key.
  const ced::RunConfig other =
      *ced::RunConfig::Builder().latency(2).checkpoint_shards(3).build();
  const StoredScheme miss = load_stored_scheme(
      store, core::derive_design(f, other.options()), other.options());
  EXPECT_FALSE(miss.scheme.has_value());
  EXPECT_NE(miss.name, found.name);

  // A degraded run files its manifest but no scheme.
  ArtifactStore cut_store(dir_ / "cut");
  StoreArchive cut_archive(cut_store);
  const ced::RunConfig cut = *ced::RunConfig::Builder()
                                  .latency(2)
                                  .threads(1)
                                  .archive(&cut_archive)
                                  .max_new_shards(1)
                                  .build();
  const core::PipelineReport cut_rep = ced::run_pipeline(f, cut);
  ASSERT_TRUE(cut_rep.resilience.degraded());
  EXPECT_TRUE(load_manifest(cut_store, record_run(cut_store, cut, cut_rep,
                                                  "traffic", {}))
                  .has_value());
  EXPECT_FALSE(load_stored_scheme(cut_store, design, cut.options()).scheme);
}

TEST_F(StorageTest, PipelineQuarantinesCorruptCacheAndRecomputes) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("traffic")));
  ArtifactStore store(dir_);
  StoreArchive archive(store);
  core::PipelineOptions opts;
  opts.latency = 2;
  opts.exec.threads = 1;
  opts.archive = &archive;
  const core::PipelineReport ref = ced::run_pipeline(f, ced::RunConfig::wrap(opts));
  ASSERT_FALSE(ref.resilience.degraded());
  ASSERT_TRUE(ref.resilience.store_events.empty());

  // Find and corrupt the cached table bundle on disk.
  std::string tab_name;
  for (const std::string& name : store.list()) {
    if (name.rfind("tab-", 0) == 0) tab_name = name;
  }
  ASSERT_FALSE(tab_name.empty());
  std::string bytes = read_raw(tab_name);
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x20);
  write_raw(tab_name, bytes);

  const core::PipelineReport rep = ced::run_pipeline(f, ced::RunConfig::wrap(opts));
  // Same full-quality answer, recomputed; the incident is an audit event,
  // not a degradation.
  EXPECT_EQ(rep.parities, ref.parities);
  EXPECT_EQ(rep.num_cases, ref.num_cases);
  EXPECT_FALSE(rep.resilience.degraded());
  ASSERT_FALSE(rep.resilience.store_events.empty());
  EXPECT_NE(rep.resilience.store_events[0].find("quarantined"),
            std::string::npos);
  EXPECT_FALSE(rep.resilience.summary().empty());
  // The recomputed bundle was re-cached and is valid again.
  EXPECT_TRUE(
      store.get_validated(tab_name, ArtifactKind::kTableBundle).has_value());
}

TEST_F(StorageTest, StoreDirectoryFailureDegradesToAlwaysMiss) {
  // A file where the directory should be: init fails, pipeline still runs.
  const fs::path blocked = dir_ / "blocked";
  { std::ofstream f(blocked); f << "x"; }
  ArtifactStore store(blocked);
  EXPECT_FALSE(store.status().ok());

  StoreArchive archive(store);
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("modulo5")));
  core::PipelineOptions opts;
  opts.latency = 1;
  opts.exec.threads = 1;
  opts.archive = &archive;
  const core::PipelineReport rep = ced::run_pipeline(f, ced::RunConfig::wrap(opts));
  EXPECT_FALSE(rep.resilience.degraded());
  EXPECT_FALSE(rep.resilience.store_events.empty());
  EXPECT_GT(rep.num_cases, 0u);
}

// --------------------------------------------------- cross-process locking

/// Probes the store's advisory lock from a real second process (flock is
/// per-open-file-description, so probing from the same process would lie):
/// forks a child that tries a non-blocking flock on the lock file and
/// reports via its exit code whether the lock was obtainable.
int probe_lock_from_child(const fs::path& dir, int operation) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd =
        ::open((dir / ".store.lock").c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) ::_exit(2);
    const int rc = ::flock(fd, operation | LOCK_NB);
    ::_exit(rc == 0 ? 0 : 1);  // 0 = acquired, 1 = would block
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 2;
}

TEST_F(StorageTest, ExclusiveStoreLockBlocksOtherProcesses) {
  {
    StoreLock lease(dir_, /*exclusive=*/true);
    ASSERT_TRUE(lease.held());
    // While gc/verify_all would hold this, no other process may take the
    // lock in either mode.
    EXPECT_EQ(probe_lock_from_child(dir_, LOCK_SH), 1);
    EXPECT_EQ(probe_lock_from_child(dir_, LOCK_EX), 1);
  }
  // Released on scope exit: the same probes now succeed.
  EXPECT_EQ(probe_lock_from_child(dir_, LOCK_SH), 0);
  EXPECT_EQ(probe_lock_from_child(dir_, LOCK_EX), 0);
}

TEST_F(StorageTest, SharedStoreLocksCoexistButExcludeSweeps) {
  StoreLock writer(dir_, /*exclusive=*/false);
  ASSERT_TRUE(writer.held());
  // Another writer (shared) from a second process is fine...
  EXPECT_EQ(probe_lock_from_child(dir_, LOCK_SH), 0);
  // ...but an exclusive maintenance sweep must wait.
  EXPECT_EQ(probe_lock_from_child(dir_, LOCK_EX), 1);
}

TEST_F(StorageTest, GcDoesNotRaceAConcurrentWriterProcess) {
  ArtifactStore store(dir_);
  ASSERT_TRUE(store.status().ok());
  const std::string bytes = encode_scheme({2, {0x3ull, 0x5ull}});
  ASSERT_TRUE(store.put("scheme-live", bytes).ok());

  // A second process holds the writer (shared) lease mid-put; gc in this
  // process must block until it releases rather than sweeping temp files
  // out from under it. Child: hold LOCK_SH for 300ms, then exit.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int fd =
        ::open((dir_ / ".store.lock").c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) ::_exit(2);
    if (::flock(fd, LOCK_SH) != 0) ::_exit(2);
    ::usleep(300 * 1000);
    ::_exit(0);
  }
  ::usleep(50 * 1000);  // let the child take the lease
  const auto t0 = std::chrono::steady_clock::now();
  const GcStats gc = store.gc();
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  int status = 0;
  ::waitpid(pid, &status, 0);
  // gc ran only after the writer released (allow generous scheduling
  // slack, but it must have waited a detectable amount).
  EXPECT_GT(waited_ms, 100.0);
  EXPECT_EQ(gc.tmp_removed, 0u);
  EXPECT_TRUE(store.get_validated("scheme-live", ArtifactKind::kParityScheme)
                  .has_value());
}

}  // namespace
}  // namespace ced::storage
