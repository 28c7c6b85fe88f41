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

TEST_F(StorageTest, CircuitRoundTripIsCanonical) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const std::string bytes = encode_circuit(c);
  auto decoded = decode_circuit(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_text();
  EXPECT_EQ(decoded->netlist.num_nets(), c.netlist.num_nets());
  EXPECT_EQ(decoded->netlist.num_outputs(), c.netlist.num_outputs());
  EXPECT_EQ(decoded->covers.size(), c.covers.size());
  EXPECT_EQ(decoded->enc.reset_code, c.enc.reset_code);
  // Functional equivalence on a few input assignments.
  for (std::uint64_t a = 0; a < 16; ++a) {
    EXPECT_EQ(decoded->netlist.eval_single(a), c.netlist.eval_single(a));
  }
  // Canonical: re-encoding the decoded circuit reproduces the bytes.
  EXPECT_EQ(encode_circuit(*decoded), bytes);
}

TEST_F(StorageTest, FaultListRoundTripIsCanonical) {
  const fsm::FsmCircuit c = circuit_for("modulo5");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  const std::string bytes = encode_fault_list(faults);
  auto decoded = decode_fault_list(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_text();
  ASSERT_EQ(decoded->size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ((*decoded)[i].net, faults[i].net);
    EXPECT_EQ((*decoded)[i].stuck_value, faults[i].stuck_value);
  }
  EXPECT_EQ(encode_fault_list(*decoded), bytes);
}

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

  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  const core::CedHardware hw = core::synthesize_ced(c, loaded->parities, {});
  sim::CampaignOptions co;
  co.latency_bound = loaded->latency;
  const sim::CampaignReport cr = sim::run_campaign(c, hw, faults, co);
  EXPECT_TRUE(cr.bound_holds())
      << cr.detected_late + cr.silent_escape << " violations, "
      << cr.false_alarms << " false alarms";
}

TEST_F(StorageTest, ReportRoundTripIsCanonical) {
  core::PipelineReport rep;
  rep.inputs = 3;
  rep.state_bits = 4;
  rep.outputs = 2;
  rep.orig_gates = 120;
  rep.orig_area = 245.5;
  rep.num_faults = 99;
  rep.num_detectable_faults = 97;
  rep.num_cases = 1234;
  rep.latency = 2;
  rep.num_trees = 3;
  rep.ced_gates = 88;
  rep.ced_area = 170.25;
  rep.parities = {0x12, 0x50, 0x2b};
  rep.algo_stats.lp_solves = 4;
  rep.algo_stats.final_q = 3;
  rep.algo_stats.qs_tried = {5, 4, 3};
  rep.algo_stats.lp_budget_hit = true;
  rep.resilience.status = Status::truncated(Stage::kExtract, "test");
  rep.resilience.extraction_truncated = true;
  rep.resilience.solver_used = core::CascadeLevel::kGreedy;
  core::FallbackEvent ev;
  ev.stage = Stage::kExtract;
  ev.reason = StatusCode::kTruncated;
  ev.detail = "case budget";
  ev.seconds = 1.5;
  ev.cases_seen = 1234;
  rep.resilience.events.push_back(ev);
  rep.resilience.store_events.push_back("quarantined tab-x.ced: crc");
  rep.t_synth = 0.01;
  rep.t_extract = 1.25;
  rep.t_solve = 0.5;
  rep.t_ced = 0.02;

  const std::string bytes = encode_report(rep);
  auto decoded = decode_report(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_text();
  EXPECT_EQ(decoded->parities, rep.parities);
  EXPECT_EQ(decoded->num_cases, rep.num_cases);
  EXPECT_EQ(decoded->algo_stats.qs_tried, rep.algo_stats.qs_tried);
  EXPECT_EQ(decoded->resilience.status.code, StatusCode::kTruncated);
  EXPECT_EQ(decoded->resilience.solver_used, core::CascadeLevel::kGreedy);
  ASSERT_EQ(decoded->resilience.events.size(), 1u);
  EXPECT_EQ(decoded->resilience.events[0].detail, "case budget");
  EXPECT_EQ(decoded->resilience.store_events, rep.resilience.store_events);
  EXPECT_EQ(decoded->t_extract, rep.t_extract);
  EXPECT_EQ(encode_report(*decoded), bytes);
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
  const std::string name =
      manifest_name(man.extraction_key, man.latency, "greedy");
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
  const std::string bytes = encode_fault_list({});
  std::string mutated = bytes;
  mutated[4] = static_cast<char>(kFormatVersion + 1);  // little-endian u16
  auto decoded = decode_fault_list(mutated);
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
  ASSERT_TRUE(store.put("scheme-x", encode_fault_list({})).ok());
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

// ------------------------------------------------- pipeline integration

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
