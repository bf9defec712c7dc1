// reedbench — the REED end-to-end benchmark (see README.md).
//
//   reedbench --workload first-backup|incremental-backup
//             --seed N --seconds S --trace 0|1 --work-dir DIR --out-dir DIR
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a correctness
// check fails or an op throws, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  reedbench::WorkloadArgs args;
  args.work_dir = ".bench_build/reedbench/data";
  args.out_dir = ".bench_build/reedbench/out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.name = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "reedbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || !reedbench::IsWorkload(args.name) ||
      !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: reedbench --workload "
                 "first-backup|incremental-backup --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR]\n");
    return 2;
  }
  try {
    reedbench::RunResult result = reedbench::RunWorkload(args);
    return reedbench::Report(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reedbench: %s\n", e.what());
    return 1;
  }
}
