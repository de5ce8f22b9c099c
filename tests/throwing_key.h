// A key whose copy constructor throws std::bad_alloc on the Nth copy after
// arming — the way a std::string key fails when the heap is exhausted.
// Moves never throw, so only the copies insert makes from `const Key&` into
// new nodes count.
#pragma once

#include <new>

namespace lf_test {

struct ThrowingKey {
  static inline int copies_until_throw = 0;  // 0: disarmed

  long v = 0;

  ThrowingKey() = default;
  ThrowingKey(long x) : v(x) {}  // NOLINT: implicit, for terse tests
  ThrowingKey(const ThrowingKey& o) : v(o.v) {
    if (copies_until_throw > 0 && --copies_until_throw == 0)
      throw std::bad_alloc();
  }
  ThrowingKey(ThrowingKey&& o) noexcept : v(o.v) {}
  ThrowingKey& operator=(const ThrowingKey&) = default;
  ThrowingKey& operator=(ThrowingKey&&) noexcept = default;
  bool operator<(const ThrowingKey& o) const { return v < o.v; }
};

}  // namespace lf_test
