// E9 row: FRSkipList on an epoch domain of its own.
#include "lf/core/fr_skiplist.h"
#include "lf/reclaim/epoch.h"
#include "rows.h"

e9::Row e9::frskiplist_epoch() {
  lf::reclaim::EpochDomain domain;
  return measure("FRSkipList + Epoch", [&] {
    return lf::FRSkipList<long, long>{lf::reclaim::EpochReclaimer(domain)};
  });
}
