// E9 row: MichaelList, leaking every node.
#include "lf/baselines/michael_list.h"
#include "lf/reclaim/leaky.h"
#include "rows.h"

e9::Row e9::michael_leaky() {
  return measure("MichaelList + Leaky", [] {
    return lf::MichaelList<long, long, std::less<long>,
                           lf::reclaim::LeakyReclaimer>{};
  });
}
