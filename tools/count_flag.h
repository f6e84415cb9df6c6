// ParseCount / ParseReal — strict parsing of the numeric values the
// command-line tools take (thread counts, capacities, ports, layer caps,
// scales, ratios, timeouts).
//
// Both are built on the line protocol's checked number reader
// (ParseNumber in server/line_protocol.h), so a flag accepts exactly what
// the wire does: the whole value must be one in-range number. "-2",
// "12abc", "abc" and "" are usage errors, never a count near 2^64 or a
// silent 0.

#ifndef BIGINDEX_TOOLS_COUNT_FLAG_H_
#define BIGINDEX_TOOLS_COUNT_FLAG_H_

#include <cstddef>
#include <cstdio>
#include <limits>

#include "server/line_protocol.h"

namespace bigindex {

/// Largest value a TCP port flag accepts.
inline constexpr size_t kMaxPort = 65535;

/// Parses `text` (the value of `flag`) as a decimal count in [0, max] into
/// *out. On empty, non-digit, negative, trailing-junk, overflowing or
/// too-large input, prints "error: ..." to stderr and returns false; the
/// caller then exits with its usage status.
inline bool ParseCount(const char* flag, const char* text, size_t* out,
                       size_t max = std::numeric_limits<size_t>::max()) {
  size_t value = 0;
  if (!ParseNumber(text, &value) || value > max) {
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

/// Parses `text` (the value of `flag`) as a finite number >= 0 into *out,
/// reporting a bad value the way ParseCount does.
inline bool ParseReal(const char* flag, const char* text, double* out) {
  double value = 0;
  if (!ParseNumber(text, &value) || value < 0) {
    std::fprintf(stderr, "error: %s wants a non-negative number, got '%s'\n",
                 flag, text);
    return false;
  }
  *out = value;
  return true;
}

}  // namespace bigindex

#endif  // BIGINDEX_TOOLS_COUNT_FLAG_H_
