// perfbench_driver — the benchmark's timed program.  run.py builds it and
// drives it; each invocation runs one repetition of one workload:
//
//   perfbench_driver scenario FILE.poly        untraced scenario path
//   perfbench_driver trace-events FILE.poly SPANS [PROBES]
//                                                traced event fleet, with
//                                                PROBES routing lookups a
//                                                round
//   perfbench_driver trace-sync FILE.poly SPANS     traced sync simulator
//
// and prints one JSON line of raw figures.  Exit status: 0 on success, 1
// when a check fails, 2 on bad usage or a malformed program.
#include <cstdio>
#include <exception>
#include <string>

#include "report.hpp"

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "scenario" && argc == 3)
      return perfbench::run_scenario(argv[2]);
    if (mode == "trace-events" && (argc == 4 || argc == 5))
      return perfbench::run_traced_events(
          argv[2], argv[3], argc == 5 ? std::stoul(argv[4]) : 0);
    if (mode == "trace-sync" && argc == 4)
      return perfbench::run_traced_sync(argv[2], argv[3]);
  } catch (const poly::scenario::ProgramError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_driver scenario FILE.poly\n"
               "       perfbench_driver trace-events FILE.poly SPANS_OUT "
               "[PROBES]\n"
               "       perfbench_driver trace-sync FILE.poly SPANS_OUT\n");
  return 2;
}
