// E9 row: FRSkipListRC (Valois reference counting).
#include "lf/core/fr_skiplist_rc.h"
#include "rows.h"

e9::Row e9::frskiplist_rc() {
  return measure("FRSkipListRC + RefCounting",
                 [] { return lf::FRSkipListRC<long, long>{}; });
}
