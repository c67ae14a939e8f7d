#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "callgraph.hpp"
#include "flow.hpp"
#include "lexer.hpp"
#include "sema.hpp"

namespace pcm::lint {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Split into lines without the trailing newline.
std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(std::move(cur));
  return lines;
}

/// Rules suppressed per line (`pcm-lint:allow(rule)`) and per file
/// (`pcm-lint:allow-file(rule)`). Scanned on the raw source, because the
/// markers live in comments that stripping removes.
struct Suppressions {
  std::set<std::pair<int, std::string>> line_rules;  // (1-based line, rule)
  std::set<std::string> file_rules;

  [[nodiscard]] bool allows(int line, const std::string& rule) const {
    return file_rules.count(rule) > 0 ||
           line_rules.count({line, rule}) > 0;
  }
};

Suppressions scan_suppressions(const std::vector<std::string>& lines) {
  Suppressions sup;
  static const std::regex line_re(R"(pcm-lint:allow\(([a-z-]+)\))");
  static const std::regex file_re(R"(pcm-lint:allow-file\(([a-z-]+)\))");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int ln = static_cast<int>(i) + 1;
    auto begin = std::sregex_iterator(lines[i].begin(), lines[i].end(), line_re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      sup.line_rules.insert({ln, (*it)[1].str()});
    }
    begin = std::sregex_iterator(lines[i].begin(), lines[i].end(), file_re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      sup.file_rules.insert((*it)[1].str());
    }
  }
  return sup;
}

/// True when the match at `pos` is a standalone token (not the tail of a
/// longer identifier).
bool token_boundary_before(const std::string& line, std::size_t pos) {
  return pos == 0 || !is_ident(line[pos - 1]);
}

// --- rule: wallclock -------------------------------------------------------

const std::regex& wallclock_call_re() {
  // Optional std:: prefix, then a wall-clock / libc-randomness function
  // applied with '('. The preceding-character check (done by the caller)
  // keeps ops_time( / static_assert(-style identifiers out.
  static const std::regex re(
      R"((?:std\s*::\s*)?(rand|srand|rand_r|drand48|lrand48|time|clock|gettimeofday|clock_gettime)\s*\()");
  return re;
}

void check_wallclock(const std::string& rel_path,
                     const std::vector<std::string>& lines,
                     std::vector<Diagnostic>* out) {
  static const std::regex device_re(R"(\brandom_device\b)");
  static const std::regex now_re(R"(_clock\s*::\s*now\b)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const int ln = static_cast<int>(i) + 1;
    for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                        wallclock_call_re());
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position(0));
      if (!token_boundary_before(line, pos)) continue;
      // Member access (obj.time(...)) is somebody's accessor, not libc.
      if (pos > 0 && (line[pos - 1] == '.' ||
                      (pos > 1 && line[pos - 1] == '>' && line[pos - 2] == '-')))
        continue;
      out->push_back(
          {rel_path, ln, "wallclock",
           "call to '" + (*it)[1].str() +
               "' reads host state; all randomness/time must come from the "
               "seeded sim::Rng / simulated clocks (allowed only in src/exec/)"});
    }
    if (std::regex_search(line, device_re)) {
      out->push_back({rel_path, ln, "wallclock",
                      "std::random_device is nondeterministic; seed a sim::Rng "
                      "instead (allowed only in src/exec/)"});
    }
    if (std::regex_search(line, now_re)) {
      out->push_back({rel_path, ln, "wallclock",
                      "std::chrono ::now() reads the host clock; simulated "
                      "time must come from the machine's clocks (allowed only "
                      "in src/exec/)"});
    }
  }
}

// --- rule: unordered-iteration ---------------------------------------------

void check_unordered_iteration(const std::string& rel_path,
                               const std::vector<std::string>& lines,
                               std::vector<Diagnostic>* out) {
  // Pass 1: names declared (anywhere in this file) with an unordered type.
  static const std::regex decl_re(
      R"(unordered_(?:flat_)?(?:map|set|multimap|multiset)\s*<[^;{}=]*>\s+([A-Za-z_]\w*))");
  std::set<std::string> names;
  for (const auto& line : lines) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), decl_re);
         it != std::sregex_iterator(); ++it) {
      names.insert((*it)[1].str());
    }
  }
  if (names.empty()) return;

  // Pass 2: range-for over such a name, or explicit begin()/end() walks.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const int ln = static_cast<int>(i) + 1;
    for (const auto& name : names) {
      const std::regex range_re(R"(for\s*\([^;)]*:\s*)" + name + R"(\s*\))");
      const std::regex begin_re(
          R"(\b)" + name + R"(\s*\.\s*(?:begin|end|cbegin|cend|rbegin|rend)\s*\()");
      if (std::regex_search(line, range_re) ||
          std::regex_search(line, begin_re)) {
        out->push_back(
            {rel_path, ln, "unordered-iteration",
             "iterating '" + name +
                 "' (declared std::unordered_*) — hash iteration order is "
                 "implementation-defined and leaks into simulated timings; "
                 "use an ordered container or sort the keys first"});
      }
    }
  }
}

// --- rule: float-time ------------------------------------------------------

void check_float_time(const std::string& rel_path,
                      const std::vector<std::string>& lines,
                      std::vector<Diagnostic>* out) {
  static const std::regex float_re(R"(\bfloat\b)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i], float_re)) {
      out->push_back({rel_path, static_cast<int>(i) + 1, "float-time",
                      "'float' in the timing core — simulated time is "
                      "sim::Micros (double); single-precision rounds "
                      "differently across optimisation levels"});
    }
  }
}

// --- rule: include-layer ---------------------------------------------------

/// The simulator tree's layer order. Lower layers must not include higher
/// ones; same-layer includes are fine (audit and net are mutually aware by
/// design, which is why they share a layer). Directories the map does not
/// know (new subsystems) are skipped rather than guessed at.
///
/// sim is the arena/SoA scratch floor: sim::Arena, sim::ClockSet and the
/// RNG are the allocation-free hot-loop substrate every router builds on,
/// so sim must never include the subsystems (net, machines, ...) that carve
/// scratch out of it.
int layer_of(const std::string& dir) {
  if (dir == "sim") return 0;
  if (dir == "report") return 1;
  if (dir == "audit" || dir == "net" || dir == "race" || dir == "obs" ||
      dir == "core" || dir == "fault")
    return 2;
  if (dir == "machines") return 3;
  if (dir == "models" || dir == "runtime") return 4;
  if (dir == "algos" || dir == "predict" || dir == "calibrate") return 5;
  if (dir == "vendor" || dir == "exec") return 6;
  // learn consumes the exec engine: it fits scaling models to sweep
  // results. Nothing below the engine may reach up into it.
  if (dir == "learn") return 7;
  return -1;
}

constexpr const char* kLayerOrder =
    "sim -> report -> audit/net/race/obs/core/fault -> machines -> "
    "models/runtime -> algos/predict/calibrate -> vendor/exec -> learn";

/// A physical-line run spliced at backslash-newlines into one logical line,
/// remembering where it started so diagnostics land on the directive.
struct LogicalLine {
  std::string text;
  int first_line = 0;
};

std::vector<LogicalLine> join_continuations(
    const std::vector<std::string>& raw_lines) {
  auto continued = [](std::string* s) {
    if (!s->empty() && s->back() == '\r') s->pop_back();
    if (s->empty() || s->back() != '\\') return false;
    s->pop_back();
    return true;
  };
  std::vector<LogicalLine> out;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    LogicalLine ll{raw_lines[i], static_cast<int>(i) + 1};
    while (continued(&ll.text) && i + 1 < raw_lines.size()) {
      ll.text += raw_lines[++i];
    }
    out.push_back(std::move(ll));
  }
  return out;
}

/// Scans the *raw* lines: stripping blanks string contents, and an #include
/// target is a string. Logical lines, not physical — `#include \<newline>
/// "machines/x.hpp"` is one directive and must not dodge the rule.
void check_include_layer(const std::string& rel_path,
                         const std::vector<std::string>& raw_lines,
                         std::vector<Diagnostic>* out) {
  const auto slash1 = rel_path.find('/');  // past "src"
  const auto slash2 = rel_path.find('/', slash1 + 1);
  if (slash2 == std::string::npos) return;  // file directly under src/
  const std::string own_dir = rel_path.substr(slash1 + 1, slash2 - slash1 - 1);
  const int own_layer = layer_of(own_dir);
  if (own_layer < 0) return;

  static const std::regex inc_re(R"(^\s*#\s*include\s*"([^"]+)\")");
  for (const LogicalLine& ll : join_continuations(raw_lines)) {
    std::smatch m;
    if (!std::regex_search(ll.text, m, inc_re)) continue;
    const std::string target = m[1].str();
    const auto slash = target.find('/');
    if (slash == std::string::npos) continue;  // not a subsystem include
    const std::string target_dir = target.substr(0, slash);
    const int target_layer = layer_of(target_dir);
    if (target_layer < 0 || target_layer <= own_layer) continue;
    out->push_back(
        {rel_path, ll.first_line, "include-layer",
         "src/" + own_dir + "/ (layer " + std::to_string(own_layer) +
             ") includes \"" + target + "\" from src/" + target_dir +
             "/ (layer " + std::to_string(target_layer) +
             ") — a backward edge in the layer order " + kLayerOrder +
             "; invert the dependency or move the shared piece down"});
  }
}

// --- rule: assert-in-header ------------------------------------------------

void check_assert_in_header(const std::string& rel_path,
                            const std::vector<std::string>& lines,
                            std::vector<Diagnostic>* out) {
  static const std::regex assert_re(R"(assert\s*\()");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), assert_re);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position(0));
      if (!token_boundary_before(line, pos)) continue;  // static_assert( etc.
      out->push_back({rel_path, static_cast<int>(i) + 1, "assert-in-header",
                      "assert() in a header is stripped from Release bench "
                      "builds by NDEBUG; use PCM_CHECK (sim/check.hpp)"});
    }
  }
}

// --- rule: metric-in-header ------------------------------------------------

/// obs::register_metric mutates the process-global metric registry, and a
/// registration in a header runs once per translation unit that includes
/// it. The registry deduplicates by name, but whether ids stay stable then
/// depends on include graphs and static-init order — so registration is
/// confined to .cpp files, and src/obs/ itself (which owns the registry and
/// declares the API) is the one place headers may mention it.
void check_metric_in_header(const std::string& rel_path,
                            const std::vector<std::string>& lines,
                            std::vector<Diagnostic>* out) {
  static const std::regex reg_re(R"(\bregister_metric\s*\()");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i], reg_re)) {
      out->push_back(
          {rel_path, static_cast<int>(i) + 1, "metric-in-header",
           "register_metric() in a header runs once per including "
           "translation unit and welds metric ids to the include graph; "
           "register in a .cpp at namespace scope (see src/obs/metrics.cpp)"});
    }
  }
}

// --- rule: bare-catch ------------------------------------------------------

/// catch (...) handlers that swallow the exception. The handler body (brace
/// matched on the stripped text) must mention `throw` (a rethrow) or
/// std::current_exception (capturing the failure for later recording);
/// otherwise an error vanishes silently and a faulted run looks clean.
/// src/exec/ is exempt — the engine's catch sites feed its failure ledger,
/// and swallowing there is the whole point of per-cell isolation.
void check_bare_catch(const std::string& rel_path, const std::string& stripped,
                      std::vector<Diagnostic>* out) {
  static const std::regex catch_re(R"(\bcatch\s*\(\s*\.\.\.\s*\))");
  static const std::regex keep_re(R"(\bthrow\b|\bcurrent_exception\b)");
  for (auto it =
           std::sregex_iterator(stripped.begin(), stripped.end(), catch_re);
       it != std::sregex_iterator(); ++it) {
    const auto match_pos = static_cast<std::size_t>(it->position(0));
    const std::size_t open =
        stripped.find('{', match_pos + static_cast<std::size_t>(it->length(0)));
    if (open == std::string::npos) continue;  // malformed; the compiler's job
    int depth = 0;
    std::size_t close = open;
    for (; close < stripped.size(); ++close) {
      if (stripped[close] == '{') {
        ++depth;
      } else if (stripped[close] == '}' && --depth == 0) {
        break;
      }
    }
    const std::string body = stripped.substr(open, close - open + 1);
    if (std::regex_search(body, keep_re)) continue;
    const int ln = 1 + static_cast<int>(std::count(
                           stripped.begin(),
                           stripped.begin() + static_cast<std::ptrdiff_t>(
                                                  match_pos),
                           '\n'));
    out->push_back(
        {rel_path, ln, "bare-catch",
         "catch (...) that neither rethrows nor captures "
         "std::current_exception() swallows the failure silently; rethrow, "
         "record it, or route it through the exec engine's failure ledger "
         "(src/exec/ is exempt)"});
  }
}

/// Length of the raw-string introducer ([u8|u|U|L]R"delim() starting at `i`
/// — through the opening '(' — filling `delim`; 0 when `i` does not start a
/// well-formed raw string. Delimiters are capped at 16 d-chars with no
/// quote/paren/backslash/space/newline (the standard's rules); anything
/// malformed falls back to ordinary scanning.
std::size_t raw_intro_len(const std::string& src, std::size_t i,
                          std::string* delim) {
  const std::size_t n = src.size();
  std::size_t j = i;
  if (j + 1 < n && src[j] == 'u' && src[j + 1] == '8') {
    j += 2;
  } else if (j < n && (src[j] == 'u' || src[j] == 'U' || src[j] == 'L')) {
    ++j;
  }
  if (j + 1 >= n || src[j] != 'R' || src[j + 1] != '"') return 0;
  j += 2;
  delim->clear();
  while (j < n && src[j] != '(') {
    const char d = src[j];
    if (delim->size() >= 16 || d == ')' || d == '\\' || d == ' ' ||
        d == '"' || d == '\n') {
      return 0;
    }
    delim->push_back(d);
    ++j;
  }
  if (j >= n) return 0;
  return j + 1 - i;
}

}  // namespace

std::string strip_comments_and_strings(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  enum class State { Code, LineComment, BlockComment, String, Char, Raw };
  State state = State::Code;
  std::string raw_delim;  // for R"delim( ... )delim"
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto emit = [&](char c) { out.push_back(c == '\n' ? '\n' : c); };
  auto blank = [&](char c) { out.push_back(c == '\n' ? '\n' : ' '); };

  while (i < n) {
    const char c = src[i];
    const char next = (i + 1 < n) ? src[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          blank(c);
          blank(next);
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          blank(c);
          blank(next);
          i += 2;
        } else if ((c == 'R' || c == 'u' || c == 'U' || c == 'L') &&
                   (i == 0 || !is_ident(src[i - 1]))) {
          // Possibly a raw string: R"delim( — or a prefixed LR" / uR" /
          // UR" / u8R" form. Anything else (L'x', u8"s", a bare
          // identifier) re-enters ordinary scanning one char on.
          const std::size_t intro = raw_intro_len(src, i, &raw_delim);
          if (intro > 0) {
            for (std::size_t k = 0; k < intro; ++k) blank(src[i + k]);
            i += intro;
            state = State::Raw;
          } else {
            emit(c);
            ++i;
          }
        } else if (c == '"') {
          state = State::String;
          blank(c);
          ++i;
        } else if (c == '\'') {
          // Digit separator (1'000'000, 0xFFFF'FFFF) vs char literal: a
          // quote glued between identifier characters whose run starts
          // with a digit is part of a pp-number, not a literal opener.
          // L'x' / u8'c' runs start with a letter and still open a char.
          std::size_t run = i;
          while (run > 0 && is_ident(src[run - 1])) --run;
          const bool separator =
              run < i && i + 1 < n && is_ident(src[i + 1]) &&
              std::isdigit(static_cast<unsigned char>(src[run])) != 0;
          if (separator) {
            emit(c);
          } else {
            state = State::Char;
            blank(c);
          }
          ++i;
        } else {
          emit(c);
          ++i;
        }
        break;
      case State::LineComment:
        // A backslash-newline splices the next physical line into the
        // comment (phase-2 translation); without this the continuation's
        // text would leak into the token stream as code.
        if (c == '\\' && (next == '\n' ||
                          (next == '\r' && i + 2 < n && src[i + 2] == '\n'))) {
          blank(c);
          blank(next);
          i += 2;
          if (next == '\r') {
            blank(src[i]);
            ++i;
          }
        } else {
          if (c == '\n') state = State::Code;
          blank(c);
          ++i;
        }
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          blank(c);
          blank(next);
          i += 2;
          state = State::Code;
        } else {
          blank(c);
          ++i;
        }
        break;
      case State::String:
        if (c == '\\' && i + 1 < n) {
          blank(c);
          blank(next);
          i += 2;
        } else {
          if (c == '"') state = State::Code;
          blank(c);
          ++i;
        }
        break;
      case State::Char:
        if (c == '\\' && i + 1 < n) {
          blank(c);
          blank(next);
          i += 2;
        } else {
          if (c == '\'') state = State::Code;
          blank(c);
          ++i;
        }
        break;
      case State::Raw: {
        const std::string close = ")" + raw_delim + "\"";
        if (src.compare(i, close.size(), close) == 0) {
          for (std::size_t k = 0; k < close.size(); ++k) blank(src[i + k]);
          i += close.size();
          state = State::Code;
        } else {
          blank(c);
          ++i;
        }
        break;
      }
    }
  }
  return out;
}

namespace {

/// Everything the multi-pass pipeline keeps about one file: the parsed TU
/// (flow rules + call graph) and this file's suppressions (applied to
/// cross-TU findings too).
struct FileAnalysis {
  std::string rel_path;
  Suppressions sup;
  sema::TranslationUnit tu;
  std::vector<Diagnostic> diags;  ///< per-file findings, unfiltered
};

FileAnalysis analyze_file(const std::string& rel_path,
                          const std::string& contents) {
  FileAnalysis fa;
  fa.rel_path = rel_path;
  const auto raw_lines = split_lines(contents);
  fa.sup = scan_suppressions(raw_lines);
  const std::string stripped = strip_comments_and_strings(contents);
  const auto lines = split_lines(stripped);

  const bool in_src = starts_with(rel_path, "src/");
  const bool in_exec = starts_with(rel_path, "src/exec/");
  const bool in_tools = starts_with(rel_path, "tools/");
  const bool is_header = rel_path.size() > 4 &&
                         rel_path.compare(rel_path.size() - 4, 4, ".hpp") == 0;
  const bool order_sensitive = starts_with(rel_path, "src/net/") ||
                               starts_with(rel_path, "src/machines/") ||
                               starts_with(rel_path, "src/algos/");
  const bool timing_core = starts_with(rel_path, "src/net/") ||
                           starts_with(rel_path, "src/machines/") ||
                           starts_with(rel_path, "src/sim/");

  auto* found = &fa.diags;
  if (!in_exec && !in_tools) check_wallclock(rel_path, lines, found);
  if (order_sensitive) check_unordered_iteration(rel_path, lines, found);
  if (timing_core) check_float_time(rel_path, lines, found);
  if (in_src && is_header) check_assert_in_header(rel_path, lines, found);
  if (in_src && is_header && !starts_with(rel_path, "src/obs/")) {
    check_metric_in_header(rel_path, lines, found);
  }
  if (in_src && !in_exec) check_bare_catch(rel_path, stripped, found);
  // Include targets are strings, so this rule reads the raw lines.
  if (in_src) check_include_layer(rel_path, raw_lines, found);

  // Flow-aware per-TU passes on the lexed/parsed stream. The parse is also
  // what the cross-TU determinism-taint pass links, so it always runs.
  fa.tu = sema::parse(rel_path, lexer::lex(stripped));
  sema::check_span_invalidation(fa.tu, found);
  if (in_src) sema::check_arena_escape(fa.tu, found);
  return fa;
}

}  // namespace

std::vector<Diagnostic> lint_files(const std::vector<FileContent>& files) {
  std::vector<FileAnalysis> analyses;
  analyses.reserve(files.size());
  for (const auto& f : files) analyses.push_back(analyze_file(f.rel_path, f.contents));

  // Link the call graph across every TU and run the taint propagation.
  std::vector<sema::TranslationUnit> tus;
  tus.reserve(analyses.size());
  for (auto& fa : analyses) tus.push_back(fa.tu);
  auto taint = callgraph::determinism_taint(tus);
  auto overflow = flow::cost_overflow(tus);

  std::map<std::string, const FileAnalysis*> by_path;
  for (const auto& fa : analyses) by_path[fa.rel_path] = &fa;

  std::vector<Diagnostic> all;
  for (auto& fa : analyses) {
    for (auto& d : fa.diags) {
      if (!fa.sup.allows(d.line, d.rule)) all.push_back(std::move(d));
    }
  }
  for (auto& cross : {&taint, &overflow}) {
    for (auto& d : *cross) {
      const auto it = by_path.find(d.file);
      if (it != by_path.end() && it->second->sup.allows(d.line, d.rule)) {
        continue;
      }
      all.push_back(std::move(d));
    }
  }

  std::stable_sort(all.begin(), all.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return all;
}

std::vector<Diagnostic> lint_file(const std::string& rel_path,
                                  const std::string& contents) {
  return lint_files({{rel_path, contents}});
}

std::vector<Diagnostic> lint_tree(const std::filesystem::path& root,
                                  const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const auto& sub : subdirs) {
    const fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<FileContent> files;
  files.reserve(paths.size());
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(
        {fs::relative(p, root).generic_string(), buf.str()});  // fwd slashes
  }
  return lint_files(files);
}

}  // namespace pcm::lint
