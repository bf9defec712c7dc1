// Store directories for tests: a fresh named directory under gtest's temp
// dir, for tests that reopen or inspect the files, and a DurableEngine on a
// scratch directory that is removed with it, for tests that only drive the
// stores.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "store/durable_engine.h"
#include "util/file_io.h"

namespace reed::testing {

// `<temp dir>/<name>`, emptied of whatever an earlier run left there.
inline std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// The four stores only exist inside an engine; fsync is off because
// nothing here outlives the test.
struct ScratchEngine {
  explicit ScratchEngine(std::size_t container_capacity =
                             store::ContainerStore::kDefaultContainerSize)
      : engine(dir.path(), store::DurabilityOptions{store::FsyncPolicy::kNone},
               container_capacity) {}

  util::ScratchDir dir{"reed-engine-test-"};
  store::DurableEngine engine;
};

}  // namespace reed::testing
