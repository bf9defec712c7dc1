// reed_model_check — standalone driver for the model-based differential
// checker (DESIGN.md §11). Exit 0 when the real stack matches the executable
// spec over the generated sequence; exit 1 with a replayable repro file on
// the first divergence.
//
//   reed_model_check --seed=3 --ops=60 [--users=3] [--depth=2]
//                    [--mode=sequential|concurrent] [--bug=none|
//                    skip-stub-reencrypt|stale-keystate] [--repro-dir=DIR]
//                    [--reopen-every=N]
//
// --reopen-every (sequential mode) restarts every server from its scratch
// store directory each N ops, checking that the security oracles hold on
// the recovered state (DESIGN.md §12).
//
// The --bug flags corrupt the stack at the harness level to prove the
// checker bites; the WILL_FAIL ctests pin them.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "model/harness.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

std::uint64_t ParseUint(const std::string& value, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    std::fprintf(stderr, "reed_model_check: bad %s '%s'\n", what,
                 value.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  reed::modelcheck::HarnessOptions options;
  std::string mode = "sequential";
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--seed", value)) {
      options.seed = ParseUint(value, "--seed");
    } else if (ParseFlag(argv[i], "--ops", value)) {
      options.num_ops = ParseUint(value, "--ops");
    } else if (ParseFlag(argv[i], "--users", value)) {
      options.num_users = ParseUint(value, "--users");
    } else if (ParseFlag(argv[i], "--depth", value)) {
      options.pipeline_depth = ParseUint(value, "--depth");
    } else if (ParseFlag(argv[i], "--mode", value)) {
      mode = value;
    } else if (ParseFlag(argv[i], "--repro-dir", value)) {
      options.repro_dir = value;
    } else if (ParseFlag(argv[i], "--reopen-every", value)) {
      options.reopen_every = ParseUint(value, "--reopen-every");
    } else if (ParseFlag(argv[i], "--bug", value)) {
      if (value == "none") {
        options.bug = reed::modelcheck::Bug::kNone;
      } else if (value == "skip-stub-reencrypt") {
        options.bug = reed::modelcheck::Bug::kSkipStubReencrypt;
      } else if (value == "stale-keystate") {
        options.bug = reed::modelcheck::Bug::kStaleKeyState;
      } else {
        std::fprintf(stderr, "reed_model_check: unknown --bug '%s'\n",
                     value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "reed_model_check: unknown argument '%s'\n",
                   argv[i]);
      return 2;
    }
  }

  if (options.reopen_every > 0 && mode != "sequential") {
    std::fprintf(stderr,
                 "reed_model_check: --reopen-every needs --mode=sequential\n");
    return 2;
  }

  reed::modelcheck::RunReport report;
  if (mode == "sequential") {
    report = reed::modelcheck::RunSequential(options);
  } else if (mode == "concurrent") {
    report = reed::modelcheck::RunConcurrent(options);
  } else {
    std::fprintf(stderr, "reed_model_check: unknown --mode '%s'\n",
                 mode.c_str());
    return 2;
  }

  if (report.ok) {
    std::printf("reed_model_check: OK (%zu ops, seed %llu, %s)\n",
                report.ops_executed,
                static_cast<unsigned long long>(options.seed), mode.c_str());
    return 0;
  }
  std::fprintf(stderr, "reed_model_check: DIVERGENCE\n  %s\n",
               report.divergence.c_str());
  if (!report.repro_path.empty()) {
    std::fprintf(stderr, "  repro written to %s\n", report.repro_path.c_str());
  }
  return 1;
}
