// perfbench: the repository benchmark's main program.
//
//   perfbench --workload <employee|tpcbih|asof-stream> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a text report (every figure with its unit and sample count,
// the deterministic counter block, failures) and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1.  With
// --out-dir, the counter block is kept per (workload, seed, mode) and
// compared with the previous run's, and a traced run writes its spans.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

using perfbench::JsonNumber;
using perfbench::JsonString;

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               problem.c_str());
  std::exit(2);
}

/// Compares the counter block with the one stored by the previous run
/// of the same workload, seed and mode, then stores this one.
std::string CompareCounters(const perfbench::RunOptions& options,
                            const std::string& block) {
  if (options.out_dir.empty()) return "not kept (no --out-dir)";
  const std::string path = options.out_dir + "/counters-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".txt";
  std::ifstream in(path);
  std::string verdict = "first recording";
  if (in) {
    std::stringstream previous;
    previous << in.rdbuf();
    verdict = previous.str() == block
                  ? "match the previous run"
                  : "DIFFER from the previous run (" + path + ")";
  }
  std::ofstream(path) << block;
  return verdict;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::RunReport report;
  try {
    report = perfbench::RunWorkload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  // A metric that could not be computed is a measurement failure.
  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.outcomes.Record(false);
      report.errors.push_back("metric " + m.name + " could not be computed");
    }
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto* list : {&report.metrics, &report.details}) {
    for (const perfbench::Metric& m : *list) {
      std::printf("  %-40s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
  std::string block;
  for (const auto& [name, value] : report.counters) {
    block += name + "=" + value + "\n";
  }
  std::printf("counters (fixed request prefix):\n");
  for (const auto& [name, value] : report.counters) {
    std::printf("  %s = %s\n", name.c_str(), value.c_str());
  }
  std::printf("counters %s\n", CompareCounters(options, block).c_str());
  for (const std::string& error : report.errors) {
    std::printf("FAILED: %s\n", error.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.outcomes.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.outcomes.attempted);
  json += ", \"failed\": " + std::to_string(report.outcomes.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : report.metrics) {
    json += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
