// Per-test scratch directory for fixtures that write files.
//
// gtest_discover_tests makes every TEST_F its own ctest entry, so
// `ctest -j` runs the cases of one binary as concurrent processes. A
// directory shared by those processes lets one case's cleanup delete
// another case's files mid-test. TempDir names its directory after the
// process id and the running test, creates it empty, and removes it on
// destruction. Hold it as the first member of a fixture so it outlives
// everything else the fixture owns.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

namespace apds {

class TempDir {
 public:
  /// `prefix` names the suite, e.g. "apds_csv_test".
  explicit TempDir(const std::string& prefix) : path_(unique_path(prefix)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;  // never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string str() const { return path_.string(); }
  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static std::filesystem::path unique_path(const std::string& prefix) {
    std::string name = prefix + "_" + std::to_string(::getpid());
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    // Parameterised test names carry '/'.
    for (char& ch : name)
      if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
    return std::filesystem::temp_directory_path() / name;
  }

  std::filesystem::path path_;
};

}  // namespace apds
