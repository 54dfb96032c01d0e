// Per-test scratch directories for tests that write files.
#pragma once

#include <stdlib.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace powerlim {

/// A fresh mkdtemp directory under ::testing::TempDir(), removed with
/// everything in it when the object dies. ctest -j runs every test as
/// its own process, so a fixed file name shared by several tests lets
/// one test overwrite another's files mid-run; a directory per test
/// cannot collide.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix) {
    std::string tmpl = ::testing::TempDir() + prefix + "_XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) dir_ = tmpl;
  }
  ~ScratchDir() {
    // A failed test keeps its files for inspection (CI uploads TMPDIR).
    if (dir_.empty() || ::testing::Test::HasFailure()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// False when mkdtemp failed; tests assert on it before writing.
  bool ok() const { return !dir_.empty(); }
  std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

 private:
  std::string dir_;
};

}  // namespace powerlim
