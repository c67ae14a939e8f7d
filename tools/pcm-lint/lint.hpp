#pragma once

#include <filesystem>
#include <string>
#include <vector>

// pcm-lint: a multi-pass semantic determinism linter for the simulator
// tree.
//
// The front end strips comments/strings (preserving line structure and
// handling backslash continuations), lexes each file into a token stream
// (lexer.hpp), extracts function definitions and call sequences per TU
// (sema.hpp), and links a repo-wide call graph across TUs (callgraph.hpp).
// Line-local rules run on the stripped lines; the sema rules
// (span-invalidation, arena-escape) run on each parsed TU;
// determinism-taint runs on the call graph; and the one CFG/dataflow rule
// (cost-overflow; flow.hpp) runs on per-function control-flow graphs.
//
// The reproduction's whole value rests on runs being bit-identical across
// --jobs values and machines, so the linter rejects the constructs that have
// historically broken that promise:
//
//   wallclock            rand()/time()/std::random_device/chrono ::now()
//                        anywhere outside src/exec/ (the only component
//                        allowed to look at the host) and tools/.
//   unordered-iteration  iterating a std::unordered_* container in src/net,
//                        src/machines or src/algos — hash iteration order is
//                        implementation-defined and leaks straight into
//                        simulated timings.
//   float-time           the `float` keyword in src/net, src/machines or
//                        src/sim — simulated time is sim::Micros (double);
//                        mixing float into it loses ulps differently on
//                        different optimisation levels.
//   assert-in-header     assert( in a header under src/ — headers are
//                        compiled into Release bench binaries where NDEBUG
//                        strips the check; use PCM_CHECK instead.
//   metric-in-header     obs::register_metric( in a header under src/
//                        (outside src/obs/) — registration would run once
//                        per including TU.
//   bare-catch           a catch (...) handler under src/ (outside
//                        src/exec/) whose body neither rethrows nor calls
//                        std::current_exception — swallowing an exception
//                        silently makes a faulted run look clean. The exec
//                        engine is exempt: its catch sites exist to record
//                        failures in the sweep's failure ledger.
//   include-layer        a quoted #include under src/ pointing *up* the
//                        subsystem layer order (layer_of() in lint.cpp)
//                          sim -> report -> audit/net/race/obs/core/fault ->
//                          machines -> models/runtime ->
//                          algos/predict/calibrate -> vendor/exec ->
//                          learn
//                        (report is a leaf presentation layer consumed by
//                        core, and exec sits on top of the machine layer —
//                        the map encodes the tree as actually built, not the
//                        conceptual data-flow order). Same-layer includes
//                        are allowed: audit and net are mutually aware by
//                        design. Directories the map does not know are
//                        skipped, so a new subsystem must be added there
//                        before the rule constrains it.
//
// Narrowing conversions are not a lint rule: the build compiles with
// -Wconversion -Werror=conversion, which rejects every implicit one.
//
// An inline suppression is the one way to accept a finding (placed in a
// comment on the offending line / anywhere in the file):
//   pcm-lint:allow(<rule>)        silence <rule> on this line
//   pcm-lint:allow-file(<rule>)   silence <rule> for the whole file
//
// Deliberately not libclang: the linter must build and run in the bare
// toolchain image, and every construct it hunts is lexically recognisable.

namespace pcm::lint {

struct Diagnostic {
  std::string file;  ///< Path as given (repo-relative when walking a tree).
  int line = 0;      ///< 1-based.
  std::string rule;
  std::string message;
};

/// One file handed to the linter: repo-relative forward-slash path + bytes.
struct FileContent {
  std::string rel_path;
  std::string contents;
};

/// Replace comments and string/char literals (including raw strings, in
/// every prefix form R" LR" uR" UR" u8R" and with custom delimiters) with
/// spaces, preserving line structure so diagnostics keep their line numbers.
[[nodiscard]] std::string strip_comments_and_strings(const std::string& src);

/// Lint one file's contents. `rel_path` decides which rules apply and must
/// use forward slashes (e.g. "src/net/mesh_router.cpp"). Cross-TU analysis
/// (determinism-taint) sees only this one TU.
[[nodiscard]] std::vector<Diagnostic> lint_file(const std::string& rel_path,
                                                const std::string& contents);

/// Lint a set of files as one program: per-file rules plus the cross-TU
/// call-graph pass. Diagnostics are suppression-filtered and ordered by
/// (file, line).
[[nodiscard]] std::vector<Diagnostic> lint_files(
    const std::vector<FileContent>& files);

/// Walk `subdirs` under `root`, lint every *.hpp / *.cpp, and return all
/// diagnostics ordered by (file, line). Missing subdirs are skipped.
[[nodiscard]] std::vector<Diagnostic> lint_tree(
    const std::filesystem::path& root, const std::vector<std::string>& subdirs);

}  // namespace pcm::lint
