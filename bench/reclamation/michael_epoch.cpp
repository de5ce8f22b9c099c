// E9 row: MichaelList on the global epoch domain.
#include "lf/baselines/michael_list.h"
#include "lf/reclaim/epoch.h"
#include "rows.h"

e9::Row e9::michael_epoch() {
  return measure("MichaelList + Epoch(global)",
                 [] { return lf::MichaelList<long, long>{}; });
}
