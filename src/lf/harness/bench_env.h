// Benchmark environment banner: records what the measurements ran on so
// EXPERIMENTS.md entries carry their context.
#pragma once

#include <string>

namespace lf::harness {

// Prints hardware-concurrency, build flags, the transparent-huge-page mode
// and the step-cost caveat for single-core machines. Call once at the top
// of every bench binary.
void print_environment(const char* experiment_id, const char* claim);

// The selected mode of transparent huge pages ("always", "madvise" or
// "never", read from /sys/kernel/mm/transparent_hugepage/enabled), or
// "unavailable" where that file cannot be read. The segment pool's chunks
// get huge pages in the first two modes only.
std::string thp_mode();

}  // namespace lf::harness
