// Workload driver of the repository benchmark. Runs one workload in this
// process and prints its record as one JSON line on stdout (metrics with
// units, run context, attempted/failed operation counts). perfbench/run.py
// builds this binary, runs it and checks the record.
//
//   tklus_perfbench --workload hot_fit --seed 1 --seconds 10 --trace 0
//                   [--scale 1] [--setup-reps 3] [--work-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "ledger.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--scale F] [--setup-reps N] [--work-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".bench_work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scale") {
      config.scale = std::atof(value);
    } else if (flag == "--setup-reps") {
      config.setup_reps = std::atoi(value);
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || config.workload.empty() || config.seconds <= 0 ||
      config.scale <= 0 || config.setup_reps < 1) {
    return Usage(argv[0]);
  }

  std::filesystem::create_directories(config.work_dir);
  perfbench::Ledger ledger;
  const bool known = perfbench::RunWorkload(config, &ledger);
  std::filesystem::remove_all(config.work_dir);
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  std::printf("%s\n", ledger.ToJson().c_str());
  return 0;
}
