// ParseCount — strict parsing of the non-negative integer values the command
// line tools take (thread counts, capacities, ports, layer caps).
//
// std::atoi accepts "-2", "12abc" and "" without complaint, and a cast of
// its result to an unsigned type turns "-2" into a count near 2^64. Every
// count flag goes through ParseCount instead, which accepts only a plain
// run of decimal digits whose value is at most `max`.

#ifndef BIGINDEX_TOOLS_COUNT_FLAG_H_
#define BIGINDEX_TOOLS_COUNT_FLAG_H_

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <system_error>

namespace bigindex {

/// Largest value a TCP port flag accepts.
inline constexpr size_t kMaxPort = 65535;

/// Parses `text` (the value of `flag`) as a decimal count in [0, max] into
/// *out. On empty, non-digit, negative, trailing-junk, overflowing or
/// too-large input, prints "error: ..." to stderr and returns false; the
/// caller then exits with its usage status.
inline bool ParseCount(const char* flag, const char* text, size_t* out,
                       size_t max = std::numeric_limits<size_t>::max()) {
  const char* end = text + std::strlen(text);
  size_t value = 0;
  // from_chars on an unsigned type takes neither a sign nor whitespace, and
  // reports an empty or overflowing value as an error.
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    if (max == std::numeric_limits<size_t>::max()) {
      std::fprintf(stderr,
                   "error: %s wants a non-negative integer, got '%s'\n", flag,
                   text);
    } else {
      std::fprintf(stderr,
                   "error: %s wants an integer from 0 to %zu, got '%s'\n",
                   flag, max, text);
    }
    return false;
  }
  *out = value;
  return true;
}

}  // namespace bigindex

#endif  // BIGINDEX_TOOLS_COUNT_FLAG_H_
