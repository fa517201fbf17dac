#ifndef WALRUS_TESTS_FRESH_DIR_H_
#define WALRUS_TESTS_FRESH_DIR_H_

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace walrus {

/// Empty per-test directory under the gtest temp root. Files an earlier
/// run (or an older build) left there are removed first, so a test never
/// reopens stale state. The directories these tests use are flat.
inline std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      std::string file = entry->d_name;
      if (file != "." && file != "..") {
        std::remove((dir + "/" + file).c_str());
      }
    }
    ::closedir(d);
  }
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace walrus

#endif  // WALRUS_TESTS_FRESH_DIR_H_
