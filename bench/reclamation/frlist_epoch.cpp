// E9 row: FRList on an epoch domain of its own.
#include "lf/core/fr_list.h"
#include "lf/reclaim/epoch.h"
#include "rows.h"

e9::Row e9::frlist_epoch() {
  lf::reclaim::EpochDomain domain;
  return measure("FRList + Epoch", [&] {
    return lf::FRList<long, long>{lf::reclaim::EpochReclaimer(domain)};
  });
}
