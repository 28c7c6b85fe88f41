#pragma once

// Crash-safe, corruption-detecting artifact store.
//
// Layout: one directory holding `<name>.ced` artifact files plus a
// `quarantine/` subdirectory. Every write is atomic (temp file + fsync +
// rename, see common/io.hpp) so a killed process leaves either the old
// bytes, the new bytes, or a stray `*.tmp.*` file that `gc` sweeps —
// never a half-written artifact under the real name. Every read is
// validated (magic, version, kind, per-section CRC32); artifacts that
// fail validation are moved to quarantine, recorded as an event, and
// reported as a miss so callers transparently recompute.
//
// Thread safety: all methods may be called concurrently (checkpoint
// shards are persisted from extraction worker threads).

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "core/extract.hpp"
#include "core/run.hpp"
#include "storage/format.hpp"

namespace ced::storage {

/// Advisory cross-process lease over a store directory, backed by
/// flock(2) on `<dir>/.store.lock`. Writers (put, quarantine moves) hold
/// it shared; the maintenance sweeps (verify_all, gc) hold it exclusive —
/// so a daemon worker persisting a checkpoint shard and a concurrent
/// `ced_cli store gc` in another process serialize instead of tearing
/// each other (gc could otherwise unlink the writer's in-flight atomic
/// temp file between create and rename). Acquisition blocks; both sides'
/// critical sections are short. A store whose lock file cannot be opened
/// degrades to unlocked operation (held() == false) rather than failing —
/// the lock is a hardening layer, not a correctness dependency for
/// single-process use.
class StoreLock {
 public:
  StoreLock(const std::filesystem::path& dir, bool exclusive);
  ~StoreLock();
  StoreLock(const StoreLock&) = delete;
  StoreLock& operator=(const StoreLock&) = delete;

  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Result of an integrity scan over every artifact in the store.
struct VerifyStats {
  std::size_t scanned = 0;
  std::size_t ok = 0;
  std::size_t quarantined = 0;  ///< failed validation, moved aside
};

/// Result of a garbage-collection pass.
struct GcStats {
  std::size_t tmp_removed = 0;         ///< stray atomic-write temp files
  std::size_t quarantine_removed = 0;  ///< previously quarantined artifacts
  std::size_t stale_shards_removed = 0;///< checkpoints whose table exists
};

class ArtifactStore {
 public:
  /// Opens (and creates, if needed) the store directory and its
  /// quarantine/ subdirectory. Failure is recorded in status(): the store
  /// then behaves as always-miss and every put records an event.
  explicit ArtifactStore(std::filesystem::path dir);

  const std::filesystem::path& dir() const { return dir_; }
  const Status& status() const { return init_status_; }

  /// Atomically writes `<name>.ced`. Failures become events (and the
  /// returned Status), never exceptions.
  Status put(const std::string& name, std::string_view bytes);

  /// Reads `<name>.ced` into `bytes` and opens it as `kind`, checking the
  /// envelope (magic/version/kind/CRC); the returned reader views `bytes`
  /// and is what the decoders read. A missing file is a plain miss; a file
  /// that fails validation is quarantined, recorded as an event, and
  /// returned as the failure Status — the caller treats both as
  /// "recompute".
  Result<ArtifactReader> get_validated(const std::string& name,
                                       ArtifactKind kind, std::string& bytes);

  bool exists(const std::string& name) const;
  void remove(const std::string& name);
  /// Names (without the .ced suffix) of every artifact in the store.
  std::vector<std::string> list() const;

  /// Moves `<name>.ced` to quarantine and records an event. Used when an
  /// artifact passes the envelope check but fails semantic decoding.
  void discard_corrupt(const std::string& name, const std::string& why);

  /// Validates every artifact; quarantines the ones that fail.
  VerifyStats verify_all();
  /// Removes stray temp files, quarantined artifacts, and checkpoint
  /// shards made redundant by a complete table bundle.
  GcStats gc();

  /// Returns and clears the accumulated incident log (quarantines, write
  /// failures). The pipeline folds these into ResilienceReport::store_events.
  std::vector<std::string> drain_events();

  /// Attaches observability sinks: store reads/writes/quarantines become
  /// counters (ced_store_reads_total, ced_store_writes_total,
  /// ced_store_quarantines_total). Write-only diagnostics on a cold path —
  /// updates go straight to the registry, no shard buffering. The caller
  /// keeps ownership; sinks must outlive the store or be reset to {}.
  void set_sinks(const obs::Sinks& sinks) { sinks_ = sinks; }

 private:
  std::filesystem::path path_for(const std::string& name) const;
  void quarantine_file(const std::filesystem::path& p, const std::string& why);
  void event(std::string e);

  void count(const char* name) const;

  std::filesystem::path dir_;
  Status init_status_;
  obs::Sinks sinks_;
  mutable std::mutex mu_;
  std::vector<std::string> events_;
};

/// core::ExtractArchive backed by an ArtifactStore: table bundles under
/// `tab-<key>.ced`, checkpoint shards under `shard-<key>-NNN.ced`. All
/// corruption handling (quarantine + recompute) happens here; the
/// extraction code only ever sees hits and misses.
class StoreArchive final : public core::ExtractArchive {
 public:
  explicit StoreArchive(ArtifactStore& store) : store_(store) {}

  std::vector<core::DetectabilityTable> load_tables(
      const std::string& key) override;
  void store_tables(
      const std::string& key,
      const std::vector<core::DetectabilityTable>& tables) override;
  ShardHooks<core::ExtractShard> shard_hooks(const std::string& key) override;
  void drop_shards(const std::string& key) override;
  std::vector<std::string> drain_events() override;

 private:
  ArtifactStore& store_;
};

/// Canonical artifact names. Scheme and manifest names end in the
/// solver's tag (lp or greedy), spelled in store.cpp only.
std::string table_name(const std::string& key);
std::string shard_name(const std::string& key, std::uint32_t index);
std::string scheme_name(const std::string& key, int latency,
                        core::SolverKind solver);
std::string manifest_name(const std::string& key, int latency,
                          core::SolverKind solver);

/// Scheme round-trip through a store (corruption-checked like any other
/// artifact; a corrupt scheme is quarantined and reported as a miss).
Status store_scheme(ArtifactStore& store, const std::string& name,
                    const SchemeArtifact& scheme);
Result<SchemeArtifact> load_scheme(ArtifactStore& store,
                                   const std::string& name);

/// Run-manifest round-trip (same quarantine-on-corruption contract).
Status store_manifest(ArtifactStore& store, const std::string& name,
                      const ManifestArtifact& manifest);
Result<ManifestArtifact> load_manifest(ArtifactStore& store,
                                       const std::string& name);

/// A machine's stored scheme, looked up where record_run files a
/// full-quality run of the same configuration:
/// scheme_name(core::extraction_key(design, opts, opts.latency),
/// opts.latency, opts.solver).
struct StoredScheme {
  std::string name;               ///< the artifact looked up
  Result<SchemeArtifact> scheme;  ///< a miss or a quarantine is the Status
  core::CedHardware hw;           ///< set by load_stored_checker on a hit
};

StoredScheme load_stored_scheme(ArtifactStore& store,
                                const core::Design& design,
                                const core::PipelineOptions& opts);

/// load_stored_scheme plus, on a hit, the scheme's Fig. 3 checker
/// synthesized with opts.ced: the protected design that `ced_cli verify`,
/// `ced_cli campaign` and the serve verify op prove.
StoredScheme load_stored_checker(ArtifactStore& store,
                                 const core::Design& design,
                                 const core::PipelineOptions& opts);

/// Files a finished run under rep.extraction_key, so `rep` must come from
/// a run bound to an archive. The scheme is written for full-quality runs
/// only: a degraded scheme covers what was seen, not necessarily the full
/// fault set. The manifest is written for every run, since a degraded
/// manifest documents how the run degraded; it records cfg's digest and
/// thread count, `label` and `spans`. Returns the manifest's name.
std::string record_run(ArtifactStore& store, const RunConfig& cfg,
                       const core::PipelineReport& rep,
                       const std::string& label,
                       std::vector<obs::SpanRecord> spans);

/// Campaign artifacts: the finished verdict sheet under `camp-<key>.ced`,
/// checkpoint shards under `cshard-<key>-NNN.ced`. `key` is the campaign's
/// content digest (sim::campaign_digest), so resumed and re-run campaigns
/// with identical result-shaping inputs share checkpoints and a completed
/// report supersedes its shards (gc() removes them).
std::string campaign_report_name(const std::string& key);
std::string campaign_shard_name(const std::string& key, std::uint32_t index);

/// Wires the campaign engine's checkpoint callbacks to a store, like
/// StoreArchive::shard_hooks: load validates, decodes and checks shard
/// identity (corrupt or mismatched checkpoints are quarantined and read as
/// misses); save persists a completed shard atomically.
ShardHooks<sim::CampaignShard> make_campaign_hooks(ArtifactStore& store,
                                                   const std::string& key);

/// Removes every checkpoint shard of a campaign key.
void drop_campaign_shards(ArtifactStore& store, const std::string& key);

/// Verdict-sheet round-trip (quarantine-on-corruption like the others).
Status store_campaign_report(ArtifactStore& store, const std::string& name,
                             const sim::CampaignReport& report);
Result<sim::CampaignReport> load_campaign_report(ArtifactStore& store,
                                                 const std::string& name);

}  // namespace ced::storage
