// Positive fixture for the allowlist rule: this file's wall-clock use is
// covered by a live entry in tools/lint/allowlist.txt, beside a dead entry
// for a file that no longer exists. Expected: exactly one allowlist
// finding, at the dead entry's line.
#include <chrono>

namespace fixture {

long long wallClockMs() {
  const auto t = std::chrono::steady_clock::now();
  return t.time_since_epoch().count() / 1000000;
}

}  // namespace fixture
