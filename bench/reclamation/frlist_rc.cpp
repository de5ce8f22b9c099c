// E9 row: FRListRC (Valois reference counting).
#include "lf/core/fr_list_rc.h"
#include "rows.h"

e9::Row e9::frlist_rc() {
  return measure("FRListRC + RefCounting (Valois)",
                 [] { return lf::FRListRC<long, long>{}; });
}
