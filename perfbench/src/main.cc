// usep_perfbench: one run of one workload of the end-to-end benchmark.
//
//   usep_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --scratch DIR [--inject_us US]
//
// Prints the source tree it was compiled from, the metrics and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits non-zero without that line when the run cannot be carried out.
// perfbench/run.py builds this binary and is the intended entry point.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/memhook.h"
#include "report.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--inject_us") {
      args->inject_us = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "usep_perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "usep_perfbench: bad value for %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->scratch.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: usep_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--inject_us US]\n");
    return 2;
  }
  if (!usep::memhook::IsActive()) {
    std::fprintf(stderr, "usep_perfbench: allocation hook not linked\n");
    return 2;
  }
  std::filesystem::create_directories(args.scratch);
  std::printf("usep_perfbench: source %s\n", PERFBENCH_SOURCE_ROOT);
  perfbench::Report report;
  const bool ran = args.workload == "serve-open"
                       ? perfbench::RunServe(args, &report)
                       : perfbench::RunBatch(args, &report);
  if (!ran) {
    std::fprintf(stderr, "usep_perfbench: workload %s could not run\n",
                 args.workload.c_str());
    return 1;
  }
  report.Print();
  return 0;
}
