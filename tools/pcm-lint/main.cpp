// pcm-lint CLI. Usage:
//
//   pcm-lint [--root=DIR] [subdir...]
//
// Lints *.hpp / *.cpp under the given subdirs (default: src bench tests)
// relative to --root (default: the current directory). Prints one
// `file:line: [rule] message` per finding and exits 1 when anything is
// flagged, so it slots straight into CTest / CI. A finding is accepted only
// by an inline `pcm-lint:allow(rule)` suppression (lint.hpp).

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hpp"

int main(int argc, char** argv) {
  std::filesystem::path root = std::filesystem::current_path();
  std::vector<std::string> subdirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: pcm-lint [--root=DIR] [subdir...]\n"
                   "lints *.hpp/*.cpp for determinism hazards; default "
                   "subdirs: src bench tests\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "pcm-lint: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      subdirs.push_back(arg);
    }
  }
  if (subdirs.empty()) subdirs = {"src", "bench", "tests"};

  if (!std::filesystem::exists(root)) {
    std::cerr << "pcm-lint: root '" << root.string() << "' does not exist\n";
    return 2;
  }

  const auto diags = pcm::lint::lint_tree(root, subdirs);
  for (const auto& d : diags) {
    std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
              << d.message << "\n";
  }
  if (!diags.empty()) {
    std::cout << "pcm-lint: " << diags.size() << " finding"
              << (diags.size() == 1 ? "" : "s") << "\n";
    return 1;
  }
  return 0;
}
