// E9 row: MichaelListHP on a hazard-pointer domain of its own.
#include "lf/baselines/michael_list.h"
#include "lf/reclaim/hazard.h"
#include "rows.h"

e9::Row e9::michael_hp() {
  lf::reclaim::HazardDomain domain;
  return measure("MichaelListHP + HazardPtrs",
                 [&] { return lf::MichaelListHP<long, long>(domain); });
}
