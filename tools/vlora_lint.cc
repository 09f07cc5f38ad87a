// vlora_lint: repo-local static checks that clang/gcc do not cover.
//
// Usage: vlora_lint <file-or-dir>...
//        vlora_lint --lock-order <file-or-dir>...
//        vlora_lint --hot-path <hot_paths.toml> <file-or-dir>...
//
// The first form runs the per-line rules (tools/lint_rules.h). The others
// run the whole-tree file-graph passes built on tools/callgraph.h: the
// lock-order pass (tools/lock_order.h) against the Rank enum in the scanned
// src/common/sync.h, and the hot-path purity pass (tools/hot_path.h) against
// tools/hot_paths.toml. Directories are walked recursively for .h/.cc/.cpp
// sources; every finding prints as
// "file:line: [rule] message" and a non-empty report exits 1, so the binary
// slots straight into ctest / CI.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "tools/hot_path.h"
#include "tools/lint_rules.h"
#include "tools/lock_order.h"

namespace fs = std::filesystem;

namespace {

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

void Collect(const fs::path& root, std::vector<std::string>* files) {
  std::error_code ec;
  if (fs::is_directory(root, ec)) {
    for (fs::recursive_directory_iterator it(root, ec), end; it != end; it.increment(ec)) {
      if (ec) {
        break;
      }
      if (it->is_regular_file(ec) && IsSourceFile(it->path())) {
        files->push_back(it->path().generic_string());
      }
    }
  } else {
    files->push_back(root.generic_string());
  }
}

// Prints a pass's findings and returns its exit code.
int ReportPass(const char* pass_name, const std::vector<vlora::lint::Finding>& findings) {
  for (const vlora::lint::Finding& finding : findings) {
    std::printf("%s\n", vlora::lint::FormatFinding(finding).c_str());
  }
  std::printf("vlora_lint: %s: %zu finding(s)\n", pass_name, findings.size());
  return findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file-or-dir>...\n"
                 "       %s --lock-order <file-or-dir>...\n"
                 "       %s --hot-path <hot_paths.toml> <file-or-dir>...\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "--lock-order") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --lock-order <file-or-dir>...\n", argv[0]);
      return 2;
    }
    const std::vector<std::string> roots(argv + 2, argv + argc);
    return ReportPass("lock-order", vlora::lint::CheckLockOrderOverTree(roots));
  }
  if (mode == "--hot-path") {
    if (argc < 4) {
      std::fprintf(stderr, "usage: %s --hot-path <hot_paths.toml> <file-or-dir>...\n", argv[0]);
      return 2;
    }
    const std::vector<std::string> roots(argv + 3, argv + argc);
    return ReportPass("hot-path", vlora::lint::CheckHotPathsOverTree(argv[2], roots));
  }
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    Collect(fs::path(argv[i]), &files);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  int64_t findings_count = 0;
  for (const std::string& file : files) {
    for (const vlora::lint::Finding& finding : vlora::lint::LintFile(file)) {
      std::printf("%s\n", vlora::lint::FormatFinding(finding).c_str());
      ++findings_count;
    }
  }
  std::printf("vlora_lint: %lld finding(s) in %zu file(s)\n",
              static_cast<long long>(findings_count), files.size());
  return findings_count == 0 ? 0 : 1;
}
