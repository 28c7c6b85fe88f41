// Resume determinism: a run interrupted at any shard boundary and resumed
// later — possibly with a different thread count — must produce the same
// detectability table *byte for byte* (and hence the same parity scheme)
// as an uninterrupted run. This is the contract that makes checkpoints
// trustworthy: resuming never changes the answer, only the wall-clock.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "benchdata/handwritten.hpp"
#include "common/io.hpp"
#include "core/pipeline.hpp"
#include "core/run.hpp"
#include "kiss/kiss.hpp"
#include "storage/store.hpp"

namespace ced::storage {
namespace {

namespace fs = std::filesystem;

constexpr int kLatency = 2;
constexpr int kShards = 4;

fsm::Fsm machine() {
  return fsm::Fsm::from_kiss(
      kiss::parse(benchdata::handwritten_kiss("traffic")));
}

struct RunSpec {
  bool resume = false;
  int threads = 1;
  int max_new_shards = 0;  ///< 0 = run to completion
};

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char buf[] = "/tmp/ced_resume_test_XXXXXX";
    ASSERT_NE(::mkdtemp(buf), nullptr);
    dir_ = buf;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path fresh_dir(const std::string& tag) {
    const fs::path p = dir_ / tag;
    fs::create_directories(p);
    return p;
  }

  static core::PipelineReport run_in(const fs::path& dir, const RunSpec& spec) {
    ArtifactStore store(dir);
    StoreArchive archive(store);
    core::PipelineOptions opts;
    opts.latency = kLatency;
    opts.exec.threads = spec.threads;
    opts.archive = &archive;
    opts.resume = spec.resume;
    opts.checkpoint_shards = kShards;
    opts.max_new_shards = spec.max_new_shards;
    return ced::run_pipeline(machine(), ced::RunConfig::wrap(opts));
  }

  static std::vector<std::string> names_with_prefix(const fs::path& dir,
                                                    const std::string& prefix) {
    ArtifactStore store(dir);
    std::vector<std::string> out;
    for (const std::string& name : store.list()) {
      if (name.rfind(prefix, 0) == 0) out.push_back(name);
    }
    return out;
  }

  /// Bytes of the (single) cached table bundle in `dir`.
  static std::string tab_bytes(const fs::path& dir) {
    const auto tabs = names_with_prefix(dir, "tab-");
    EXPECT_EQ(tabs.size(), 1u);
    if (tabs.size() != 1) return {};
    auto bytes = io::read_file(dir / (tabs[0] + ".ced"));
    EXPECT_TRUE(bytes.has_value()) << bytes.status().to_text();
    return bytes ? *bytes : std::string();
  }

  fs::path dir_;
};

TEST_F(ResumeTest, InterruptedRunsResumeByteIdentical) {
  // Uninterrupted reference run (serial).
  const fs::path ref_dir = fresh_dir("ref");
  const core::PipelineReport ref = run_in(ref_dir, {});
  ASSERT_FALSE(ref.resilience.degraded());
  const std::string ref_bytes = tab_bytes(ref_dir);
  ASSERT_FALSE(ref_bytes.empty());

  for (const int shards_done : {1, 2, 3}) {
    for (const int threads : {1, 4}) {
      const std::string tag =
          "s" + std::to_string(shards_done) + "t" + std::to_string(threads);
      const fs::path dir = fresh_dir(tag);

      // Interrupt deterministically after `shards_done` new shards.
      RunSpec interrupted;
      interrupted.threads = threads;
      interrupted.max_new_shards = shards_done;
      const core::PipelineReport partial = run_in(dir, interrupted);
      EXPECT_TRUE(partial.resilience.degraded()) << tag;
      EXPECT_EQ(names_with_prefix(dir, "shard-").size(),
                static_cast<std::size_t>(shards_done))
          << tag;
      EXPECT_TRUE(names_with_prefix(dir, "tab-").empty()) << tag;

      // Resume: only the remaining shards are computed.
      RunSpec resumed;
      resumed.resume = true;
      resumed.threads = threads;
      const core::PipelineReport rep = run_in(dir, resumed);
      EXPECT_FALSE(rep.resilience.degraded()) << tag;
      // Every checkpoint decodes: none is quarantined as corrupt.
      EXPECT_TRUE(rep.resilience.store_events.empty())
          << tag << ": " << rep.resilience.store_events.front();
      EXPECT_EQ(rep.parities, ref.parities) << tag;
      EXPECT_EQ(rep.num_cases, ref.num_cases) << tag;
      EXPECT_EQ(tab_bytes(dir), ref_bytes)
          << tag << ": resumed table differs from uninterrupted run";
      // Completed bundle supersedes the checkpoints.
      EXPECT_TRUE(names_with_prefix(dir, "shard-").empty()) << tag;
    }
  }
}

TEST_F(ResumeTest, DeadlineTripThenResumeCompletes) {
  const fs::path ref_dir = fresh_dir("ref");
  const core::PipelineReport ref = run_in(ref_dir, {});
  const std::string ref_bytes = tab_bytes(ref_dir);

  const fs::path dir = fresh_dir("deadline");
  {
    // An (effectively) already-expired wall-clock budget: extraction trips
    // immediately, every shard is truncated, and — critically — no
    // truncated checkpoint is persisted to poison a later resume.
    ArtifactStore store(dir);
    StoreArchive archive(store);
    core::PipelineOptions opts;
    opts.latency = kLatency;
    opts.exec.threads = 1;
    opts.archive = &archive;
    opts.checkpoint_shards = kShards;
    opts.budget.wall_seconds = 1e-9;
    const core::PipelineReport tripped = ced::run_pipeline(machine(), ced::RunConfig::wrap(opts));
    EXPECT_TRUE(tripped.resilience.degraded());
    EXPECT_TRUE(names_with_prefix(dir, "tab-").empty());
    EXPECT_TRUE(names_with_prefix(dir, "shard-").empty());
  }

  RunSpec resumed;
  resumed.resume = true;
  const core::PipelineReport rep = run_in(dir, resumed);
  EXPECT_FALSE(rep.resilience.degraded());
  EXPECT_EQ(rep.parities, ref.parities);
  EXPECT_EQ(tab_bytes(dir), ref_bytes);
}

TEST_F(ResumeTest, CorruptedCheckpointIsRecomputedIdentically) {
  const fs::path ref_dir = fresh_dir("ref");
  const core::PipelineReport ref = run_in(ref_dir, {});
  const std::string ref_bytes = tab_bytes(ref_dir);

  const fs::path dir = fresh_dir("corrupt");
  RunSpec interrupted;
  interrupted.max_new_shards = 2;
  const core::PipelineReport partial = run_in(dir, interrupted);
  EXPECT_TRUE(partial.resilience.degraded());
  const auto shards = names_with_prefix(dir, "shard-");
  ASSERT_EQ(shards.size(), 2u);

  // Flip a bit in the first checkpoint on disk.
  const fs::path victim = dir / (shards[0] + ".ced");
  auto bytes = io::read_file(victim);
  ASSERT_TRUE(bytes.has_value());
  std::string mutated = *bytes;
  mutated[mutated.size() / 2] =
      static_cast<char>(mutated[mutated.size() / 2] ^ 0x08);
  {
    std::ofstream out(victim, std::ios::binary);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }

  RunSpec resumed;
  resumed.resume = true;
  const core::PipelineReport rep = run_in(dir, resumed);
  // The bad checkpoint was quarantined, its shard recomputed, and the final
  // table is still byte-identical — never a wrong answer from corrupt state.
  EXPECT_FALSE(rep.resilience.degraded());
  ASSERT_FALSE(rep.resilience.store_events.empty());
  EXPECT_NE(rep.resilience.store_events[0].find("quarantined"),
            std::string::npos);
  EXPECT_EQ(rep.parities, ref.parities);
  EXPECT_EQ(tab_bytes(dir), ref_bytes);
}

TEST_F(ResumeTest, WarmCacheSkipsExtractionEntirely) {
  const fs::path dir = fresh_dir("warm");
  const core::PipelineReport cold = run_in(dir, {});
  ASSERT_FALSE(cold.resilience.degraded());

  // The warm run is given a shard quota that would force truncation if
  // extraction actually ran; a full-quality result therefore proves the
  // whole stage was served from the store.
  RunSpec warm;
  warm.max_new_shards = 1;
  const core::PipelineReport rep = run_in(dir, warm);
  EXPECT_FALSE(rep.resilience.degraded());
  EXPECT_EQ(rep.parities, cold.parities);
  EXPECT_EQ(rep.num_cases, cold.num_cases);
  EXPECT_TRUE(rep.resilience.store_events.empty());
}

}  // namespace
}  // namespace ced::storage
