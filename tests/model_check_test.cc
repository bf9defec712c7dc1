// Model-based differential checking of the full REED stack against the
// executable spec in tests/model/ (DESIGN.md §11): seeded sequential sweeps
// in both pipeline modes, the injected-bug positive checks (the checker must
// CATCH a seeded semantic bug and write a replayable repro), and the
// concurrent explainability mode. The heavier multi-seed sweeps are
// registered directly in tests/CMakeLists.txt on the reed_model_check
// runner (label "model").
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "model/harness.h"
#include "model/op_generator.h"
#include "model/reference_model.h"

namespace reed {
namespace {

using modelcheck::Bug;
using modelcheck::HarnessOptions;
using modelcheck::RunReport;

HarnessOptions QuickOptions(std::uint64_t seed) {
  HarnessOptions options;
  options.seed = seed;
  options.num_ops = 28;
  options.num_users = 3;
  options.repro_dir = ::testing::TempDir();
  return options;
}

TEST(ReferenceModelTest, DedupIsGlobalAndContentBased) {
  model::ModelConfig config;
  config.chunk_size = 4;
  config.stub_size = 2;
  config.trimmed_package_size = [](std::uint64_t n) { return n + 10; };
  config.stub_blob_size = [](std::uint64_t n) { return n + 5; };
  model::ReferenceModel m(config);

  auto r1 = m.Upload("u0", "f0", {"aaaa", "bbbb", "aaaa"}, {"u0"});
  EXPECT_EQ(r1.outcome, model::Outcome::kOk);
  EXPECT_EQ(r1.chunk_count, 3u);
  EXPECT_EQ(r1.stored_chunks, 2u);   // in-file repeat deduplicates
  EXPECT_EQ(r1.duplicate_chunks, 1u);
  EXPECT_EQ(r1.stored_bytes, 2u * 14u);

  // Another user re-uploading the same content stores nothing new.
  auto r2 = m.Upload("u1", "f1", {"bbbb", "aaaa"}, {"u1"});
  EXPECT_EQ(r2.stored_chunks, 0u);
  EXPECT_EQ(r2.duplicate_chunks, 2u);
  EXPECT_EQ(m.UniqueChunks(), 2u);
}

TEST(ReferenceModelTest, RekeySemantics) {
  model::ModelConfig config;
  config.trimmed_package_size = [](std::uint64_t n) { return n; };
  config.stub_blob_size = [](std::uint64_t n) { return n; };
  model::ReferenceModel m(config);
  ASSERT_EQ(m.Upload("u0", "f0", {"x"}, {"u0", "u1"}).outcome,
            model::Outcome::kOk);
  EXPECT_TRUE(m.IsAuthorized("u1", "f0"));

  // Non-owner may not rekey.
  EXPECT_EQ(m.Rekey("u1", "f0", {"u1"}, false).outcome,
            model::Outcome::kNotOwner);

  // Lazy rekey revokes u1 and leaves the stub version behind.
  auto r = m.Rekey("u0", "f0", {"u0"}, false);
  EXPECT_EQ(r.outcome, model::Outcome::kOk);
  EXPECT_EQ(r.new_version, 1u);
  EXPECT_FALSE(r.stub_reencrypted);
  EXPECT_FALSE(m.IsAuthorized("u1", "f0"));
  EXPECT_EQ(m.KeyVersion("f0"), 1u);
  EXPECT_EQ(m.StubKeyVersion("f0"), 0u);

  // Active rekey moves the stub version forward.
  r = m.Rekey("u0", "f0", {"u0"}, true);
  EXPECT_TRUE(r.stub_reencrypted);
  EXPECT_EQ(m.StubKeyVersion("f0"), 2u);

  // Overwrite by another user transfers ownership and resets versions.
  ASSERT_EQ(m.Upload("u1", "f0", {"y"}, {"u1"}).outcome, model::Outcome::kOk);
  EXPECT_EQ(m.Owner("f0"), "u1");
  EXPECT_EQ(m.KeyVersion("f0"), 0u);
}

TEST(ReferenceModelTest, GroupRekeyAppliesPartiallyUpToFirstFailure) {
  model::ModelConfig config;
  config.trimmed_package_size = [](std::uint64_t n) { return n; };
  config.stub_blob_size = [](std::uint64_t n) { return n; };
  model::ReferenceModel m(config);
  ASSERT_EQ(m.Upload("u0", "a", {"1"}, {}).outcome, model::Outcome::kOk);
  ASSERT_EQ(m.Upload("u1", "b", {"2"}, {}).outcome, model::Outcome::kOk);
  ASSERT_EQ(m.Upload("u0", "c", {"3"}, {}).outcome, model::Outcome::kOk);

  auto g = m.RekeyGroup("u0", {"a", "b", "c"}, {"u0"}, false);
  EXPECT_EQ(g.outcome, model::Outcome::kNotOwner);
  ASSERT_EQ(g.applied.size(), 1u);  // "a" rekeyed before the failure on "b"
  EXPECT_EQ(m.KeyVersion("a"), 1u);
  EXPECT_EQ(m.KeyVersion("c"), 0u);  // never reached

  EXPECT_EQ(m.RekeyGroup("u0", {}, {"u0"}, false).outcome,
            model::Outcome::kEmptyGroup);
}

TEST(OpGeneratorTest, DeterministicPerSeed) {
  modelgen::GeneratorConfig config;
  auto a = modelgen::GenerateOps(11, 40, config);
  auto b = modelgen::GenerateOps(11, 40, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(modelgen::FormatOp(a[i]), modelgen::FormatOp(b[i])) << i;
  }
  auto c = modelgen::GenerateOps(12, 40, config);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && i < c.size(); ++i) {
    any_diff |= modelgen::FormatOp(a[i]) != modelgen::FormatOp(c[i]);
  }
  EXPECT_TRUE(any_diff);
  EXPECT_EQ(modelgen::BlockContent(11, 3, 64), modelgen::BlockContent(11, 3, 64));
  EXPECT_NE(modelgen::BlockContent(11, 3, 64), modelgen::BlockContent(11, 4, 64));
}

TEST(OpGeneratorTest, CoversEveryOpKindInTheTable) {
  modelgen::GeneratorConfig config;
  auto ops = modelgen::GenerateOps(5, 400, config);
  std::set<modelgen::OpKind> seen;
  for (const auto& op : ops) seen.insert(op.kind);
  EXPECT_EQ(seen.size(), modelgen::kOpTableSize)
      << "a 400-op sequence should hit every op kind";
}

TEST(ModelCheckTest, SequentialPipelinedMatchesModel) {
  HarnessOptions options = QuickOptions(101);
  options.pipeline_depth = 2;
  RunReport report = modelcheck::RunSequential(options);
  EXPECT_TRUE(report.ok) << report.divergence;
  EXPECT_EQ(report.ops_executed, options.num_ops);
}

TEST(ModelCheckTest, SequentialSerialPathMatchesModel) {
  HarnessOptions options = QuickOptions(202);
  options.pipeline_depth = 1;  // upload pipeline with a window of one
  RunReport report = modelcheck::RunSequential(options);
  EXPECT_TRUE(report.ok) << report.divergence;
}

TEST(ModelCheckTest, SequentialSurvivesServerRestarts) {
  // Cluster restarted from disk every few ops (alternating checkpoint-clean
  // and crash-style WAL-replay reopens): every model diff and security
  // oracle must keep holding on the recovered state.
  HarnessOptions options = QuickOptions(606);
  options.reopen_every = 7;
  RunReport report = modelcheck::RunSequential(options);
  EXPECT_TRUE(report.ok) << report.divergence;
  EXPECT_EQ(report.ops_executed, options.num_ops);
}

TEST(ModelCheckTest, ConcurrentFinalStateIsExplainable) {
  HarnessOptions options = QuickOptions(303);
  options.num_ops = 16;  // per thread
  RunReport report = modelcheck::RunConcurrent(options);
  EXPECT_TRUE(report.ok) << report.divergence;
}

// Positive checks: a deliberately injected semantic bug MUST be caught, and
// the divergence must come with a replayable repro file.
TEST(ModelCheckTest, CatchesSkippedStubReencryption) {
  HarnessOptions options = QuickOptions(401);
  options.num_ops = 40;  // enough ops to hit an active rekey
  options.bug = Bug::kSkipStubReencrypt;
  RunReport report = modelcheck::RunSequential(options);
  ASSERT_FALSE(report.ok)
      << "the checker failed to catch a skipped stub re-encryption";
  EXPECT_NE(report.divergence.find("stub"), std::string::npos)
      << report.divergence;

  ASSERT_FALSE(report.repro_path.empty());
  std::ifstream repro(report.repro_path);
  ASSERT_TRUE(repro.good());
  std::stringstream contents;
  contents << repro.rdbuf();
  EXPECT_NE(contents.str().find("replay: reed_model_check"),
            std::string::npos);
  EXPECT_NE(contents.str().find("--seed=401"), std::string::npos);
  std::remove(report.repro_path.c_str());
}

TEST(ModelCheckTest, CatchesStaleKeyStateRecord) {
  HarnessOptions options = QuickOptions(505);
  options.num_ops = 40;
  options.bug = Bug::kStaleKeyState;
  RunReport report = modelcheck::RunSequential(options);
  ASSERT_FALSE(report.ok)
      << "the checker failed to catch a stale key-state record";
  EXPECT_NE(report.divergence.find("key-state"), std::string::npos)
      << report.divergence;
  if (!report.repro_path.empty()) std::remove(report.repro_path.c_str());
}

}  // namespace
}  // namespace reed
