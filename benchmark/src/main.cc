// The repository benchmark's workload runner.
//
//   alae_benchmark --workload <long_dna|short_wire|live_rw> --seed <n>
//                  --seconds <s> --trace <0|1>
//
// Prints a human-readable report to stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see benchmark/README.md). Exit code 1 when any served
// answer differs from the reference, 2 on bad arguments or a failed
// set-up.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchmark/src/workloads.h"

namespace {

using alae::ledger::RunOptions;
using alae::ledger::RunResult;

void Usage() {
  std::fprintf(stderr,
               "usage: alae_benchmark --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const std::string& name : alae::ledger::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool Parse(int argc, char** argv, RunOptions* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (!(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!Parse(argc, argv, &options)) {
    Usage();
    return 2;
  }
  bool ok = false;
  const RunResult result = alae::ledger::RunWorkload(options, &ok);
  if (!ok) {
    std::fprintf(stderr, "%s: set-up failed or unknown workload\n",
                 options.workload.c_str());
    Usage();
    return 2;
  }

  std::fprintf(stderr, "%s seed=%llu seconds=%g trace=%d\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  std::fprintf(stderr, "  failed_frac %.6f (%llu failed, %llu refused of %llu)\n",
               result.ops.FailedFrac(),
               static_cast<unsigned long long>(result.ops.failed),
               static_cast<unsigned long long>(result.ops.refused),
               static_cast<unsigned long long>(result.ops.attempted));
  for (const alae::ledger::Metric& m : result.metrics) {
    std::fprintf(stderr, "  %-42s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (!result.correct) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", result.mismatch.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.ops.attempted);
  json += ", \"failed\": " + std::to_string(result.ops.not_ok());
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const alae::ledger::Metric& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
