#include "storage/store.hpp"

#include <cstdio>
#include <system_error>

#include <sys/file.h>
#include <unistd.h>

#include "common/io.hpp"
#include "common/retry.hpp"

namespace ced::storage {

namespace fs = std::filesystem;

namespace {

/// The one checked-load path: reads `name` as `kind` and decodes it. An
/// artifact that passes the envelope check but fails decoding is
/// quarantined with the decoder's message; either failure reads as a miss.
template <typename Decode>
auto load_checked(ArtifactStore& store, const std::string& name,
                  ArtifactKind kind, Decode decode)
    -> decltype(decode(std::string_view{})) {
  auto bytes = store.get_validated(name, kind);
  if (!bytes) return bytes.status();
  auto decoded = decode(*bytes);
  if (!decoded) store.discard_corrupt(name, decoded.status().message);
  return decoded;
}

/// `<stem>-NNN`: the name of checkpoint shard `index` under `stem`.
std::string numbered(const std::string& stem, std::uint32_t index) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "-%03u", index);
  return stem + suffix;
}

/// Checkpoint hooks over the shards `<stem>-NNN` of one kind. load is a
/// checked load that also quarantines, with `mismatch`, a shard naming
/// another index or partition; save writes atomically.
template <typename Shard, typename Decode, typename Encode>
ShardHooks<Shard> checkpoint_hooks(ArtifactStore& store, std::string stem,
                                   ArtifactKind kind, Decode decode,
                                   Encode encode, const char* mismatch) {
  ShardHooks<Shard> hooks;
  hooks.load = [&store, stem, kind, decode, mismatch](
                   std::uint32_t index, std::uint32_t num_shards,
                   Shard& out) {
    const std::string name = numbered(stem, index);
    auto shard = load_checked(store, name, kind, decode);
    if (!shard) return false;
    if (shard->index != index || shard->num_shards != num_shards) {
      store.discard_corrupt(name, mismatch);
      return false;
    }
    out = std::move(*shard);
    return true;
  };
  hooks.save = [&store, stem, encode](const Shard& shard) {
    store.put(numbered(stem, shard.index), encode(shard));
  };
  return hooks;
}

/// Removes every artifact whose name starts with `prefix`.
void remove_prefixed(ArtifactStore& store, const std::string& prefix) {
  for (const std::string& name : store.list()) {
    if (name.rfind(prefix, 0) == 0) store.remove(name);
  }
}

/// The key of a checkpoint-shard name `<prefix><key>-NNN`; empty when
/// `name` is not one.
std::string shard_key(const std::string& name, const std::string& prefix) {
  if (name.rfind(prefix, 0) != 0) return {};
  const std::size_t dash = name.rfind('-');
  if (dash == std::string::npos || dash <= prefix.size()) return {};
  return name.substr(prefix.size(), dash - prefix.size());
}

const char* solver_tag(core::SolverKind solver) {
  switch (solver) {
    case core::SolverKind::kGreedy: return "greedy";
    case core::SolverKind::kExact: return "exact";
    case core::SolverKind::kLpRounding: break;
  }
  return "lp";
}

}  // namespace

StoreLock::StoreLock(const fs::path& dir, bool exclusive) {
  const std::string path = (dir / ".store.lock").string();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  if (::flock(fd_, exclusive ? LOCK_EX : LOCK_SH) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StoreLock::~StoreLock() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

ArtifactStore::ArtifactStore(fs::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_ / "quarantine", ec);
  if (ec) {
    init_status_ = Status::internal(
        Stage::kStore, "cannot create store directory " + dir_.string() +
                           ": " + ec.message());
    event("store unusable: " + init_status_.message);
  }
}

fs::path ArtifactStore::path_for(const std::string& name) const {
  return dir_ / (name + ".ced");
}

void ArtifactStore::event(std::string e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

std::vector<std::string> ArtifactStore::drain_events() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.swap(events_);
  return out;
}

void ArtifactStore::count(const char* name) const {
  if (sinks_.metrics != nullptr) sinks_.metrics->add(name);
}

Status ArtifactStore::put(const std::string& name, std::string_view bytes) {
  if (!init_status_.ok()) return init_status_;
  count("ced_store_writes_total");
  // Shared lease for the whole atomic write so a concurrent maintenance
  // sweep in another process (exclusive) cannot unlink the in-flight
  // temp file between create and rename.
  StoreLock lease(dir_, /*exclusive=*/false);
  // Transient filesystem errors (EINTR storms, momentary EAGAIN/ENOSPC
  // blips under the chaos harness) get a short bounded retry before the
  // failure is surfaced as an event.
  Status st;
  const RetryPolicy policy{/*max_attempts=*/3, /*base_ms=*/5.0,
                           /*cap_ms=*/50.0, /*max_elapsed_ms=*/500.0};
  retry_call(policy, [&](int attempt) {
    st = io::atomic_write_file(path_for(name), bytes);
    if (!st.ok() && attempt + 1 < policy.max_attempts) {
      count("ced_store_write_retries_total");
    }
    return st.ok();
  });
  if (!st.ok()) event("write failed for " + name + ".ced: " + st.message);
  return st;
}

void ArtifactStore::quarantine_file(const fs::path& p, const std::string& why) {
  const fs::path dest = dir_ / "quarantine" / p.filename();
  std::error_code ec;
  fs::rename(p, dest, ec);
  if (ec) fs::remove(p, ec);  // cross-device or races: drop it instead
  count("ced_store_quarantines_total");
  event("quarantined " + p.filename().string() + ": " + why +
        "; recomputing");
}

Result<std::string> ArtifactStore::get_validated(const std::string& name,
                                                 ArtifactKind kind) {
  count("ced_store_reads_total");
  // Shared lease: covers both the read and a possible quarantine move, so
  // a cross-process gc can't sweep the file out from under either step.
  StoreLock lease(dir_, /*exclusive=*/false);
  const fs::path p = path_for(name);
  auto bytes = io::read_file(p);
  if (!bytes) {
    // Missing (or unreadable) artifact: a plain cache miss, not an incident.
    return Status::invalid_input(Stage::kStore,
                                 name + ".ced: " + bytes.status().message);
  }
  auto art = ArtifactReader::open(*bytes, kind);
  if (!art) {
    quarantine_file(p, art.status().message);
    return art.status();
  }
  return std::move(*bytes);
}

bool ArtifactStore::exists(const std::string& name) const {
  std::error_code ec;
  return fs::exists(path_for(name), ec);
}

void ArtifactStore::remove(const std::string& name) {
  std::error_code ec;
  fs::remove(path_for(name), ec);
}

std::vector<std::string> ArtifactStore::list() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".ced") out.push_back(p.stem().string());
  }
  return out;
}

void ArtifactStore::discard_corrupt(const std::string& name,
                                    const std::string& why) {
  StoreLock lease(dir_, /*exclusive=*/false);
  quarantine_file(path_for(name), why);
}

VerifyStats ArtifactStore::verify_all() {
  VerifyStats stats;
  // Exclusive lease: no writer in any process may be mid-put while the
  // scan classifies files (a half-visible write would be quarantined as
  // corrupt). quarantine_file itself takes no lock — callers hold one.
  StoreLock lease(dir_, /*exclusive=*/true);
  for (const std::string& name : list()) {
    ++stats.scanned;
    auto bytes = io::read_file(path_for(name));
    if (!bytes) {
      quarantine_file(path_for(name), bytes.status().message);
      ++stats.quarantined;
      continue;
    }
    Status st = validate_envelope(*bytes);
    if (st.ok()) {
      ++stats.ok;
    } else {
      quarantine_file(path_for(name), st.message);
      ++stats.quarantined;
    }
  }
  return stats;
}

GcStats ArtifactStore::gc() {
  GcStats stats;
  // Exclusive lease: the temp-file sweep below would otherwise race a
  // concurrent writer's atomic_write_file (unlinking its temp between
  // create and rename makes the rename fail).
  StoreLock lease(dir_, /*exclusive=*/true);
  std::error_code ec;
  // Stray atomic-write temp files (a crash between create and rename).
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string fname = it->path().filename().string();
    if (fname.find(".tmp.") != std::string::npos) {
      std::error_code rec;
      if (fs::remove(it->path(), rec)) ++stats.tmp_removed;
    }
  }
  // Quarantined artifacts have served their diagnostic purpose.
  for (fs::directory_iterator it(dir_ / "quarantine", ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code rec;
    if (fs::remove(it->path(), rec)) ++stats.quarantine_removed;
  }
  // Checkpoint shards whose finished artifact exists are redundant:
  // shard-<key>-NNN is superseded by the table bundle tab-<key>, and
  // cshard-<key>-NNN by the campaign verdict sheet camp-<key>.
  for (const std::string& name : list()) {
    const std::string tab_key = shard_key(name, "shard-");
    const std::string camp_key = shard_key(name, "cshard-");
    if ((!tab_key.empty() && exists(table_name(tab_key))) ||
        (!camp_key.empty() && exists(campaign_report_name(camp_key)))) {
      remove(name);
      ++stats.stale_shards_removed;
    }
  }
  return stats;
}

// ------------------------------------------------------------- naming

std::string table_name(const std::string& key) { return "tab-" + key; }

std::string shard_name(const std::string& key, std::uint32_t index) {
  return numbered("shard-" + key, index);
}

std::string scheme_name(const std::string& key, int latency,
                        core::SolverKind solver) {
  return "scheme-" + key + "-p" + std::to_string(latency) + "-" +
         solver_tag(solver);
}

std::string manifest_name(const std::string& key, int latency,
                          core::SolverKind solver) {
  return "man-" + key + "-p" + std::to_string(latency) + "-" +
         solver_tag(solver);
}

// -------------------------------------------------------- StoreArchive

std::vector<core::DetectabilityTable> StoreArchive::load_tables(
    const std::string& key) {
  auto tables = load_checked(store_, table_name(key),
                             ArtifactKind::kTableBundle, decode_tables);
  if (!tables) return {};
  return std::move(*tables);
}

void StoreArchive::store_tables(
    const std::string& key,
    const std::vector<core::DetectabilityTable>& tables) {
  store_.put(table_name(key), encode_tables(tables));
}

ShardHooks<core::ExtractShard> StoreArchive::shard_hooks(
    const std::string& key) {
  return checkpoint_hooks<core::ExtractShard>(
      store_, "shard-" + key, ArtifactKind::kShard, decode_shard,
      encode_shard, "shard identity mismatch");
}

void StoreArchive::drop_shards(const std::string& key) {
  remove_prefixed(store_, "shard-" + key + "-");
}

std::vector<std::string> StoreArchive::drain_events() {
  return store_.drain_events();
}

// ------------------------------------------------------------- schemes

Status store_scheme(ArtifactStore& store, const std::string& name,
                    const SchemeArtifact& scheme) {
  return store.put(name, encode_scheme(scheme));
}

Result<SchemeArtifact> load_scheme(ArtifactStore& store,
                                   const std::string& name) {
  return load_checked(store, name, ArtifactKind::kParityScheme,
                      decode_scheme);
}

// ------------------------------------------------------------ manifests

Status store_manifest(ArtifactStore& store, const std::string& name,
                      const ManifestArtifact& manifest) {
  return store.put(name, encode_manifest(manifest));
}

Result<ManifestArtifact> load_manifest(ArtifactStore& store,
                                       const std::string& name) {
  return load_checked(store, name, ArtifactKind::kManifest, decode_manifest);
}

// ----------------------------------------------------------------- runs

StoredScheme load_stored_scheme(ArtifactStore& store,
                                const core::Design& design,
                                const core::PipelineOptions& opts) {
  std::string name =
      scheme_name(core::extraction_key(design, opts, opts.latency),
                  opts.latency, opts.solver);
  Result<SchemeArtifact> scheme = load_scheme(store, name);
  return {std::move(name), std::move(scheme), {}};
}

StoredScheme load_stored_checker(ArtifactStore& store,
                                 const core::Design& design,
                                 const core::PipelineOptions& opts) {
  StoredScheme stored = load_stored_scheme(store, design, opts);
  if (stored.scheme) {
    stored.hw = core::synthesize_ced(design.circuit, stored.scheme->parities,
                                     opts.ced);
  }
  return stored;
}

std::string record_run(ArtifactStore& store, const RunConfig& cfg,
                       const core::PipelineReport& rep,
                       const std::string& label,
                       std::vector<obs::SpanRecord> spans) {
  const core::PipelineOptions& opts = cfg.options();
  if (!rep.resilience.degraded()) {
    store_scheme(store,
                 scheme_name(rep.extraction_key, rep.latency, opts.solver),
                 {rep.latency, rep.parities});
  }
  ManifestArtifact man;
  man.config_digest = cfg.digest();
  man.extraction_key = rep.extraction_key;
  man.circuit = label;
  man.latency = rep.latency;
  man.threads = opts.exec.threads;
  man.parities = rep.parities;
  man.resilience = rep.resilience;
  man.t_synth = rep.t_synth;
  man.t_extract = rep.t_extract;
  man.t_solve = rep.t_solve;
  man.t_ced = rep.t_ced;
  man.spans = std::move(spans);
  std::string name =
      manifest_name(rep.extraction_key, rep.latency, opts.solver);
  store_manifest(store, name, man);
  return name;
}

// ------------------------------------------------------------ campaigns

std::string campaign_report_name(const std::string& key) {
  return "camp-" + key;
}

std::string campaign_shard_name(const std::string& key, std::uint32_t index) {
  return numbered("cshard-" + key, index);
}

ShardHooks<sim::CampaignShard> make_campaign_hooks(ArtifactStore& store,
                                                   const std::string& key) {
  return checkpoint_hooks<sim::CampaignShard>(
      store, "cshard-" + key, ArtifactKind::kCampaignShard,
      decode_campaign_shard, encode_campaign_shard,
      "campaign shard identity mismatch");
}

void drop_campaign_shards(ArtifactStore& store, const std::string& key) {
  remove_prefixed(store, "cshard-" + key + "-");
}

Status store_campaign_report(ArtifactStore& store, const std::string& name,
                             const sim::CampaignReport& report) {
  return store.put(name, encode_campaign_report(report));
}

Result<sim::CampaignReport> load_campaign_report(ArtifactStore& store,
                                                 const std::string& name) {
  return load_checked(store, name, ArtifactKind::kCampaignReport,
                      decode_campaign_report);
}

}  // namespace ced::storage
