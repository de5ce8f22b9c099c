// E9 row: FRList, leaking every node (the paper's setting).
#include "lf/core/fr_list.h"
#include "lf/reclaim/leaky.h"
#include "rows.h"

e9::Row e9::frlist_leaky() {
  return measure("FRList + Leaky (paper setting)", [] {
    return lf::FRList<long, long, std::less<long>,
                      lf::reclaim::LeakyReclaimer>{};
  });
}
