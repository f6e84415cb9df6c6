// ProcessThreadCount — the number of OS threads in this process, read from
// the "Threads:" line of /proc/self/status. Tests use it to check that a
// component starts no threads it never runs a task on.

#ifndef BIGINDEX_TESTS_TESTING_THREAD_COUNT_H_
#define BIGINDEX_TESTS_TESTING_THREAD_COUNT_H_

#include <fstream>
#include <string>

namespace bigindex {
namespace testing {

/// Threads in this process, or -1 where /proc/self/status is unreadable
/// (callers GTEST_SKIP then).
inline int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

}  // namespace testing
}  // namespace bigindex

#endif  // BIGINDEX_TESTS_TESTING_THREAD_COUNT_H_
