// perfbench_gossip - one benchmark run of one workload.
//
//   perfbench_gossip --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
//
// Prints progress and diagnostics to stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 2 on bad arguments and 1 when the run itself cannot complete.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "perfbench.hpp"
#include "runner/scenario.hpp"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench_gossip: %s\n"
               "usage: perfbench_gossip --workload NAME --seed N --seconds S --trace 0|1\n"
               "                        [--trace-out FILE]\n"
               "workloads:",
               error.c_str());
  for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using gossip::runner::parse_count;
  perfbench::Options opt;
  bool have_workload = false;
  try {
    for (int a = 1; a < argc; ++a) {
      std::string_view arg = argv[a];
      std::string_view value;
      if (const auto eq = arg.find('='); eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      } else if (a + 1 < argc) {
        value = argv[++a];
      } else {
        usage("missing value for " + std::string(arg));
      }
      if (arg == "--workload") {
        opt.workload = std::string(value);
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = parse_count("seed", value, 0, ~std::uint64_t{0});
      } else if (arg == "--seconds") {
        opt.seconds = static_cast<double>(parse_count("seconds", value, 1, 3600));
      } else if (arg == "--trace") {
        opt.trace = parse_count("trace", value, 0, 1) == 1;
      } else if (arg == "--trace-out") {
        opt.trace_out = std::string(value);
      } else {
        usage("unknown flag " + std::string(arg));
      }
    }
  } catch (const std::exception& e) {
    usage(e.what());
  }
  if (!have_workload) usage("--workload is required");
  try {
    (void)perfbench::make_workload(opt.workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  try {
    const perfbench::Result result = perfbench::run(opt, std::cerr);
    perfbench::write_result(std::cout, result);
    std::cout.flush();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gossip: %s\n", e.what());
    return 1;
  }
  return 0;
}
