#include "exec/checkpoint.hpp"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace pcm::exec {

namespace {

constexpr const char* kMagic = "pcm-sweep-journal v3 ";

/// FNV-1a 64-bit, the per-line checksum of the journal format.
std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
                          c == '_'
                      ? c
                      : '_');
  }
  return out.empty() ? std::string("sweep") : out;
}

std::string journal_filename(const std::string& experiment,
                             const std::string& header) {
  std::ostringstream os;
  os << sanitize(experiment) << '-' << std::hex << std::setw(16)
     << std::setfill('0') << std::hash<std::string>{}(header) << ".journal";
  return os.str();
}

std::string checksum_hex(std::uint64_t h) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

/// Parse one "cell ..." payload (the line with any checksum column already
/// stripped); returns false on any malformation.
bool parse_entry(const std::string& line, JournalEntry* e) {
  std::istringstream is(line);
  std::string word;
  if (!(is >> word) || word != "cell") return false;
  if (!(is >> e->cell)) return false;
  if (!(is >> word)) return false;
  e->obs.clear();
  if (word == "ok") {
    e->ok = true;
    std::string value;
    if (!(is >> value)) return false;
    // std::strtod accepts the hexfloat form ostreams emit; iostreams'
    // operator>> does not, hence the manual parse.
    char* end = nullptr;
    e->us = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == value.c_str()) return false;
    e->kind.clear();
    e->message.clear();
    // Optional trailing metrics snapshot: "obs <token>".
    if (is >> word) {
      if (word != "obs" || !(is >> e->obs)) return false;
    }
    return true;
  }
  if (word == "fail") {
    e->ok = false;
    e->us = 0.0;
    if (!(is >> e->kind)) return false;
    std::getline(is, e->message);
    if (!e->message.empty() && e->message.front() == ' ') {
      e->message.erase(0, 1);
    }
    return true;
  }
  return false;
}

std::string one_line(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

/// Parse one record line. Returns false when the line is malformed or fails
/// its checksum.
bool parse_line(const std::string& line, JournalEntry* e) {
  // "<fnv16> <payload>"; the checksum covers the payload verbatim.
  const auto space = line.find(' ');
  if (space != 16 || line.size() < 18) return false;
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = line[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    want = want << 4 | static_cast<std::uint64_t>(digit);
  }
  const std::string payload = line.substr(space + 1);
  if (fnv1a64(payload) != want) return false;
  return parse_entry(payload, e);
}

std::string render_entry(const JournalEntry& entry) {
  std::ostringstream line;
  line << "cell " << entry.cell;
  if (entry.ok) {
    line << " ok " << std::hexfloat << entry.us;
    if (!entry.obs.empty()) line << " obs " << entry.obs;
  } else {
    line << " fail " << (entry.kind.empty() ? "unknown" : one_line(entry.kind))
         << ' ' << one_line(entry.message);
  }
  return checksum_hex(fnv1a64(line.str())) + ' ' + line.str();
}

/// What read_journal() found. `entries` is keyed by cell index with
/// later-duplicates-win semantics (a cell re-run after a partial resume
/// keeps its newest outcome).
struct JournalLoad {
  bool exists = false;          ///< File was present and readable.
  bool header_matches = false;  ///< First line matched the given header.
  std::map<std::size_t, JournalEntry> entries;
  std::size_t corrupt_lines = 0;  ///< Interior lines skipped as corrupt.
};

/// Parse a journal file against the expected identity header. Every record
/// line must pass its checksum. A malformed or checksum-failing *final*
/// line is ignored silently (the torn write of a killed process); any
/// earlier one counts in corrupt_lines.
JournalLoad read_journal(const std::string& path, const std::string& header) {
  JournalLoad load;
  std::ifstream in(path);
  if (!in) return load;
  load.exists = true;

  std::string line;
  if (!std::getline(in, line)) return load;
  if (line != kMagic + one_line(header)) return load;
  load.header_matches = true;

  // A malformed line is only *corrupt* if a well-formed line follows it —
  // the last bad line of the file is the torn write of a killed process and
  // stays silently ignored, as it always has been.
  std::size_t bad_pending = 0;
  JournalEntry e;
  while (std::getline(in, line)) {
    if (parse_line(line, &e)) {
      load.corrupt_lines += bad_pending;
      bad_pending = 0;
      load.entries[e.cell] = e;
    } else {
      ++bad_pending;
    }
  }
  load.corrupt_lines += bad_pending > 0 ? bad_pending - 1 : 0;
  return load;
}

}  // namespace

CheckpointJournal::CheckpointJournal(const std::string& dir,
                                     const std::string& experiment,
                                     const std::string& header, bool resume) {
  const std::filesystem::path root(dir);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: cannot create directory '" + dir +
                             "': " + ec.message());
  }
  path_ = (root / journal_filename(experiment, header)).string();

  if (resume) {
    JournalLoad load = read_journal(path_, header);
    if (load.exists && !load.header_matches) {
      throw std::runtime_error(
          "checkpoint: journal '" + path_ +
          "' belongs to a different sweep definition; refusing to resume");
    }
    loaded_ = std::move(load.entries);
    corrupt_lines_ = load.corrupt_lines;
    // Missing file on resume is fine: first run with --resume just starts.
  }

  const bool append_mode = resume && !loaded_.empty();
  bool needs_newline = false;
  if (append_mode) {
    // A SIGKILL can leave a torn final line with no trailing newline;
    // appending straight after it would weld two records together. Terminate
    // the torn line first so both records stay parseable (the torn one is
    // ignored, as always).
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    if (in && in.tellg() > 0) {
      in.seekg(-1, std::ios::end);
      char last = '\n';
      in.get(last);
      needs_newline = last != '\n';
    }
  }
  out_.open(path_, append_mode ? std::ios::out | std::ios::app
                               : std::ios::out | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("checkpoint: cannot open journal '" + path_ +
                             "' for writing");
  }
  if (needs_newline) out_ << '\n';
  if (!append_mode) out_ << kMagic << one_line(header) << '\n';
  out_ << std::flush;
}

void CheckpointJournal::append(const JournalEntry& entry) {
  const std::string line = render_entry(entry);
  const std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n' << std::flush;
}

}  // namespace pcm::exec
