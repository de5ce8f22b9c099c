#include "lf/harness/bench_env.h"

#include <fstream>
#include <iostream>
#include <thread>

namespace lf::harness {

std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) return "unavailable";
  const auto open = line.find('[');
  const auto close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos)
    return "unavailable";
  return line.substr(open + 1, close - open - 1);
}

void print_environment(const char* experiment_id, const char* claim) {
  std::cout << "##########################################################\n"
            << "# Experiment " << experiment_id << "\n"
            << "# Claim: " << claim << "\n"
            << "# hardware_concurrency: "
            << std::thread::hardware_concurrency() << "\n"
#ifdef NDEBUG
            << "# build: Release (NDEBUG)\n"
#else
            << "# build: Debug (asserts on; numbers not comparable)\n"
#endif
            << "# transparent huge pages: " << thp_mode() << "\n"
            << "# Cost metric: the paper's essential steps (Section 3.4) =\n"
            << "#   C&S attempts + backlink traversals + next/curr updates.\n"
            << "#   Step counts are schedule-driven and remain meaningful\n"
            << "#   on machines with few cores; wall-clock scalability\n"
            << "#   numbers are only meaningful with >= the thread count\n"
            << "#   in physical cores.\n"
            << "##########################################################"
            << std::endl;
}

}  // namespace lf::harness
