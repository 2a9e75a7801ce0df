// Temp file names private to one test process.
//
// ctest runs every gtest case as its own process (gtest_discover_tests),
// concurrently under `ctest -j`.  A fixed name under TempDir() is then
// written by one case while a sibling case's TearDown deletes it, so
// each name carries the running test's name and the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace rascal::testing_support {

/// TempDir() + "<suite>.<test>.<pid>.<stem>" ('/' of parameterized
/// names replaced by '_').
inline std::string unique_temp_path(const std::string& stem) {
  std::string name = ::testing::TempDir();
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    std::string test = info->test_suite_name();
    test += '.';
    test += info->name();
    std::replace(test.begin(), test.end(), '/', '_');
    name += test;
    name += '.';
  }
  name += std::to_string(::getpid());
  name += '.';
  name += stem;
  return name;
}

}  // namespace rascal::testing_support
