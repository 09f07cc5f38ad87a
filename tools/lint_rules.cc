#include "tools/lint_rules.h"

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace vlora {
namespace lint {
namespace {

// Rule names and the patterns below are assembled from adjacent string
// literals so this file does not trip its own rules when the CLI lints the
// whole tree (the scanner sees `std::" "mutex`, never `std::mutex`).

const char kRawMutex[] = "raw-mutex";
const char kRawAtomic[] = "raw-atomic";
const char kStatusNodiscard[] = "status-not-nodiscard";
const char kSleepInTest[] = "sleep-in-test";
const char kNakedNew[] = "naked-new";
const char kThreadDetach[] = "thread-detach";
const char kMissingGuard[] = "missing-include-guard";
const char kMutexLockTemporary[] = "mutexlock-temporary";
const char kStatusSwitch[] = "status-switch-exhaustive";
const char kTraceSpan[] = "trace-span-unclosed";
const char kRawSocketFd[] = "raw-socket-fd";
const char kRawSimd[] = "raw-simd-intrinsic";
const char kGetenvOutsideInit[] = "get" "env-outside-init";
const char kVolatileThreading[] = "vola" "tile-threading";
const char kIoError[] = "io-error";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsTestFile(const std::string& path) {
  return path.find("tests/") != std::string::npos;
}

bool IsNetFile(const std::string& path) {
  return path.find("src/net/") != std::string::npos;
}

bool IsKernelFile(const std::string& path) {
  return path.find("src/kernels/") != std::string::npos;
}

bool IsHeader(const std::string& path) { return EndsWith(path, ".h"); }

}  // namespace

bool IsSyncHeader(const std::string& path) {
  return EndsWith(path, "src/common/sync.h") || path == "sync.h";
}

// Strips // and /* */ comments for matching, preserving column positions is
// unnecessary — rules are line-granular. `in_block` carries /* state across
// lines. String literals are left in place; the rule patterns are chosen so
// log-message text does not collide with them.
std::string StripComments(const std::string& line, bool* in_block) {
  std::string out;
  out.reserve(line.size());
  size_t i = 0;
  bool in_string = false;
  char quote = '"';
  while (i < line.size()) {
    if (*in_block) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        *in_block = false;
        i += 2;
        continue;
      }
      ++i;
      continue;
    }
    const char c = line[i];
    if (in_string) {
      out.push_back(c);
      if (c == '\\' && i + 1 < line.size()) {
        out.push_back(line[i + 1]);
        i += 2;
        continue;
      }
      if (c == quote) {
        in_string = false;
      }
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      in_string = true;
      quote = c;
      out.push_back(c);
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      break;  // rest of line is a comment
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      *in_block = true;
      i += 2;
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

namespace {

bool Suppressed(const std::string& raw_line, const char* rule) {
  const std::string marker = std::string("vlora-lint: allow(") + rule + ")";
  return raw_line.find(marker) != std::string::npos;
}

const std::regex& RawMutexRe() {
  static const std::regex re(
      "(std" "::" "(mutex|timed_mutex|recursive_mutex|shared_mutex|"
      "condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\\b)"
      "|(#\\s*include\\s*<(mutex|condition_variable|shared_mutex)>)");
  return re;
}

const std::regex& RawAtomicRe() {
  // std::atomic and its relatives (atomic_ref, atomic_thread_fence), any
  // explicit memory order, and the <atomic> include.
  static const std::regex re("(std" "::" "atomic)|(\\bmemory" "_order)|"
                             "(#\\s*include\\s*<" "atomic>)");
  return re;
}

const std::regex& StatusClassRe() {
  // Opening declaration of the status vocabulary types without [[nodiscard]].
  // Forward declarations (`class Status;`) are fine.
  static const std::regex re("\\bclass" "\\s+(Status|Result)\\s*(\\{|$|:)");
  return re;
}

const std::regex& SleepRe() {
  static const std::regex re("\\bsleep_" "(for|until)\\s*\\(");
  return re;
}

const std::regex& NakedNewRe() {
  // `new T...` — placement new (`new (buf) T`) and nothrow new are not
  // matched (open paren after `new`), nor is the `-new` in hyphenated names.
  static const std::regex re("(^|[^_A-Za-z0-9.])new" "\\s+[A-Za-z_:][A-Za-z0-9_:<]*");
  return re;
}

const std::regex& DetachRe() {
  static const std::regex re("\\.detach" "\\s*\\(\\s*\\)");
  return re;
}

const std::regex& MutexLockTempRe() {
  // `MutexLock(mu);` — an unnamed temporary that unlocks again before the
  // next statement. A named guard (`MutexLock lock(&mu);`) has an identifier
  // between the type and the paren and does not match; `~MutexLock()` and
  // member access are excluded by the leading character class.
  static const std::regex re("(^|[^_A-Za-z0-9~.])Mutex" "Lock\\s*\\(");
  return re;
}

const std::regex& RawSocketRe() {
  // A call of one of the descriptor-producing/destroying POSIX entry points.
  // Member calls (`stream.close(`, `ptr->close(`) and longer identifiers
  // (`fclose(`, `NewSoc` `ket(`) are excluded by the leading character class;
  // `::` qualification still matches.
  static const std::regex re("(^|[^_A-Za-z0-9.>~])"
                             "(soc" "ket|soc" "ketpair|acc" "ept4?|clo" "se)\\s*\\(");
  return re;
}

const std::regex& RawSimdRe() {
  // A call of an x86 vector intrinsic (`_mm_...(`, `_mm256_...(`,
  // `_mm512_...(`) or an include of the intrinsic headers. The leading
  // character class keeps longer identifiers (`foo_mm256_bar`) from matching.
  static const std::regex re("((^|[^_A-Za-z0-9])_mm" "(256|512)?_[a-z0-9_]+\\s*\\()"
                             "|(#\\s*include\\s*<(imm" "intrin|x86" "intrin|avx" "intrin|"
                             "avx2" "intrin|emm" "intrin|xmm" "intrin)\\.h>)");
  return re;
}

const std::regex& GetenvRe() {
  // A call of getenv in any spelling (bare, ::, std::, secure_). Member
  // calls (`config.get` `env(`) are excluded by the leading character class.
  static const std::regex re("(^|[^_A-Za-z0-9.>])((std\\s*)?::\\s*)?(secure_)?"
                             "get" "env\\s*\\(");
  return re;
}

const std::regex& VolatileRe() {
  // The volatile keyword in any position (qualifier, member, cast). Longer
  // identifiers do not match; asm-adjacent spellings do not occur in this
  // tree.
  static const std::regex re("(^|[^_A-Za-z0-9])vola" "tile\\b");
  return re;
}

const std::regex& InitNameRe() {
  // Function names that declare themselves init-time: Init / Initialize
  // anywhere, a FromEnv suffix idiom, or main itself.
  static const std::regex re("Init|FromEnv|^main$");
  return re;
}

// The name of the function a line most plausibly lives in: the identifier
// before the first '(' of the nearest preceding column-0 line that starts an
// identifier. Definitions in this tree start at column 0 (`KernelVariant
// ResolveFromEnv() {`, `std::string ProcessReplica::DefaultExecutorPath() {`),
// so the scan never has to parse bodies.
std::string EnclosingFunctionName(const std::vector<std::string>& code_lines, size_t from) {
  for (size_t j = from + 1; j-- > 0;) {
    const std::string& code = code_lines[j];
    if (code.empty() ||
        (!isalpha(static_cast<unsigned char>(code[0])) && code[0] != '_')) {
      continue;
    }
    const size_t paren = code.find('(');
    if (paren == std::string::npos) {
      continue;
    }
    size_t end = paren;
    while (end > 0 && isspace(static_cast<unsigned char>(code[end - 1]))) {
      --end;
    }
    size_t begin = end;
    while (begin > 0 && (isalnum(static_cast<unsigned char>(code[begin - 1])) ||
                         code[begin - 1] == '_')) {
      --begin;
    }
    if (begin < end) {
      return code.substr(begin, end - begin);
    }
  }
  return "";
}

const std::regex& SwitchRe() {
  static const std::regex re("\\bswitch" "\\s*\\(");
  return re;
}

const std::regex& CaseStatusCodeRe() {
  static const std::regex re("\\bcase" "\\s+(?:vlora::)?Status" "Code::(k\\w+)");
  return re;
}

const std::regex& DefaultLabelRe() {
  static const std::regex re("\\bdefault" "\\s*:");
  return re;
}

// Every StatusCode enumerator; must track src/common/status.h. If status.h
// grows a code missing from this list, the exhaustive switches there (which
// deliberately have no default) start failing this rule — the failure message
// names the list to update.
const char* const kStatusCodeNames[] = {
    "kOk",          "kInvalidArgument",   "kNotFound", "kResourceExhausted",
    "kFailedPrecondition", "kOutOfRange", "kUnimplemented", "kInternal",
    "kCancelled",   "kDeadlineExceeded",  "kUnavailable"};

const std::regex& TraceSpanBeginRe() {
  // A call (or declaration) of a batch-step Begin emitter. Enum references
  // like kBatchStep... and string literals naming the event do not match —
  // only the open paren after the identifier does.
  static const std::regex re("BatchStep" "Begin\\s*\\(");
  return re;
}

const std::regex& IfndefRe() {
  static const std::regex re("#\\s*ifndef" "\\s+\\w+");
  return re;
}

const std::regex& PragmaOnceRe() {
  static const std::regex re("#\\s*pragma" "\\s+once\\b");
  return re;
}

void CheckLine(const std::string& path, int line_no, const std::string& raw,
               const std::string& code, std::vector<Finding>* findings) {
  if (!IsSyncHeader(path) && std::regex_search(code, RawMutexRe()) &&
      !Suppressed(raw, kRawMutex)) {
    findings->push_back({kRawMutex, path, line_no,
                         "raw standard-library mutex primitive; use vlora::Mutex / "
                         "vlora::MutexLock / vlora::CondVar from src/common/sync.h so the "
                         "thread-safety annotations see the lock"});
  }
  if (path.find("src/") != std::string::npos && !IsSyncHeader(path) &&
      std::regex_search(code, RawAtomicRe()) && !Suppressed(raw, kRawAtomic)) {
    findings->push_back({kRawAtomic, path, line_no,
                         "raw standard-library atomic under src/; use vlora::RelaxedAtomic or "
                         "vlora::PublishedAtomic from src/common/sync.h so the type fixes the "
                         "memory order"});
  }
  std::smatch m;
  if (std::regex_search(code, m, StatusClassRe()) &&
      code.find("nodiscard") == std::string::npos && !Suppressed(raw, kStatusNodiscard)) {
    findings->push_back({kStatusNodiscard, path, line_no,
                         "class " + m[1].str() +
                             " must be declared [[nodiscard]] so ignored error returns "
                             "fail the build"});
  }
  if (IsTestFile(path) && std::regex_search(code, SleepRe()) && !Suppressed(raw, kSleepInTest)) {
    findings->push_back({kSleepInTest, path, line_no,
                         "sleeping in a test hides races and slows the suite; wait on a "
                         "condition (e.g. ClusterServer::WaitForReadmissions) instead"});
  }
  if (std::regex_search(code, NakedNewRe()) && !Suppressed(raw, kNakedNew)) {
    findings->push_back({kNakedNew, path, line_no,
                         "naked new; use std::make_unique / std::make_shared or a "
                         "container"});
  }
  if (std::regex_search(code, DetachRe()) && !Suppressed(raw, kThreadDetach)) {
    findings->push_back({kThreadDetach, path, line_no,
                         "detached threads outlive the state they touch; keep the handle "
                         "and join it"});
  }
  if (!IsSyncHeader(path) && std::regex_search(code, MutexLockTempRe()) &&
      !Suppressed(raw, kMutexLockTemporary)) {
    findings->push_back({kMutexLockTemporary, path, line_no,
                         "Mutex" "Lock temporary unlocks at the end of this statement and "
                         "guards nothing; name it: Mutex" "Lock lock(&mu)"});
  }
  if (!IsNetFile(path) && std::regex_search(code, RawSocketRe()) &&
      !Suppressed(raw, kRawSocketFd)) {
    findings->push_back({kRawSocketFd, path, line_no,
                         "raw POSIX soc" "ket/descriptor call outside src/net/; descriptors "
                         "must be owned by the RAII net::Fd wrapper (src/net/fd.h) so no "
                         "error path can leak a connection"});
  }
  if (!IsKernelFile(path) && std::regex_search(code, RawSimdRe()) &&
      !Suppressed(raw, kRawSimd)) {
    findings->push_back({kRawSimd, path, line_no,
                         "raw SIMD intrinsic outside src/kernels/; add a micro-kernel to the "
                         "variant tables (src/kernels/microkernel.h) instead so dispatch, the "
                         "scalar fallback, and the differential tests keep covering it"});
  }
  if (path.find("src/") != std::string::npos && std::regex_search(code, VolatileRe()) &&
      !Suppressed(raw, kVolatileThreading)) {
    findings->push_back({kVolatileThreading, path, line_no,
                         std::string("vola") + "tile under src/: it does not order or "
                         "publish anything between threads; use vlora::RelaxedAtomic or "
                         "vlora::PublishedAtomic from src/common/sync.h"});
  }
}

// Flags environment reads under src/ outside init-named functions. The
// environment is a startup-time input: reading it per call costs a libc walk
// of environ and lets a long-lived process observe mutations that the rest of
// the system resolved once. Cold init code states the idiom in its name
// (Init*, *FromEnv, main); anything else caches a startup snapshot instead.
void CheckGetenv(const std::string& path, const std::vector<std::string>& raw_lines,
                 const std::vector<std::string>& code_lines,
                 std::vector<Finding>* findings) {
  if (path.find("src/") == std::string::npos) {
    return;
  }
  for (size_t i = 0; i < code_lines.size(); ++i) {
    if (!std::regex_search(code_lines[i], GetenvRe()) ||
        Suppressed(raw_lines[i], kGetenvOutsideInit)) {
      continue;
    }
    const std::string enclosing = EnclosingFunctionName(code_lines, i);
    if (std::regex_search(enclosing, InitNameRe())) {
      continue;
    }
    findings->push_back({kGetenvOutsideInit, path, static_cast<int>(i) + 1,
                         "get" "env in '" + (enclosing.empty() ? "?" : enclosing) +
                             "', which is not an init-time function (Init*, *FromEnv, main); "
                             "read the environment once at startup and cache the result"});
  }
}

// Flags `switch` statements over StatusCode that neither cover every
// enumerator nor carry a default. Operates on the comment-stripped lines so a
// commented-out case label cannot satisfy the check. The body is found by
// balancing parens from the switch condition and then braces; heuristic, but
// switches in this tree are plain statements, not macro soup.
void CheckStatusSwitches(const std::string& path, const std::vector<std::string>& raw_lines,
                         const std::vector<std::string>& code_lines,
                         std::vector<Finding>* findings) {
  for (size_t i = 0; i < code_lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(code_lines[i], m, SwitchRe())) {
      continue;
    }
    // Walk forward from just after "switch (": first balance the condition
    // parens, then capture the brace-balanced body.
    size_t line = i;
    size_t col = static_cast<size_t>(m.position(0) + m.length(0));
    int paren_depth = 1;
    int brace_depth = 0;
    bool in_body = false;
    std::string body;
    while (line < code_lines.size()) {
      const std::string& text = code_lines[line];
      for (; col < text.size(); ++col) {
        const char c = text[col];
        if (!in_body) {
          if (c == '(') {
            ++paren_depth;
          } else if (c == ')') {
            --paren_depth;
          } else if (c == '{' && paren_depth == 0) {
            in_body = true;
            brace_depth = 1;
          }
          continue;
        }
        if (c == '{') {
          ++brace_depth;
        } else if (c == '}') {
          if (--brace_depth == 0) {
            break;
          }
        }
        body.push_back(c);
      }
      if (in_body && brace_depth == 0) {
        break;
      }
      body.push_back('\n');
      ++line;
      col = 0;
    }
    std::set<std::string> covered;
    for (std::sregex_iterator it(body.begin(), body.end(), CaseStatusCodeRe()), end;
         it != end; ++it) {
      covered.insert((*it)[1].str());
    }
    if (covered.empty()) {
      continue;  // not a StatusCode switch
    }
    if (std::regex_search(body, DefaultLabelRe())) {
      continue;
    }
    std::vector<std::string> missing;
    for (const char* name : kStatusCodeNames) {
      if (covered.count(name) == 0) {
        missing.push_back(name);
      }
    }
    if (missing.empty()) {
      continue;  // exhaustive without default: fine, the compiler warns on new codes
    }
    if (Suppressed(raw_lines[i], kStatusSwitch)) {
      continue;
    }
    std::string msg = "switch over Status" "Code has no default and misses ";
    for (size_t k = 0; k < missing.size(); ++k) {
      if (k > 0) {
        msg += ", ";
      }
      msg += missing[k];
    }
    msg += "; add the missing cases or a default (enumerator list: tools/lint_rules.cc)";
    findings->push_back({kStatusSwitch, path, static_cast<int>(i) + 1, msg});
  }
}

// Flags an explicit BatchStep-Begin emission whose enclosing scope contains
// neither a matching End emission nor an RAII span. An early return between
// Begin and End leaks an open span and corrupts the Chrome trace's B/E
// nesting; trace::BatchStep-Span closes on every path. Scope is approximated
// by scanning forward from the trigger to the first unmatched '}' — calls at
// statement level inside a function body resolve to that function. Tests are
// exempt (they reference Begin events alone in assertions).
void CheckTraceSpans(const std::string& path, const std::vector<std::string>& raw_lines,
                     const std::vector<std::string>& code_lines,
                     std::vector<Finding>* findings) {
  if (IsTestFile(path)) {
    return;
  }
  const std::string end_token = std::string("BatchStep") + "End";
  const std::string span_token = std::string("BatchStep") + "Span";
  for (size_t i = 0; i < code_lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(code_lines[i], m, TraceSpanBeginRe())) {
      continue;
    }
    if (Suppressed(raw_lines[i], kTraceSpan)) {
      continue;
    }
    bool closed = false;
    int depth = 0;
    size_t line = i;
    size_t col = static_cast<size_t>(m.position(0) + m.length(0));
    while (line < code_lines.size()) {
      const std::string& text = code_lines[line];
      if (text.find(end_token, col) != std::string::npos ||
          text.find(span_token, col) != std::string::npos) {
        closed = true;
        break;
      }
      bool scope_over = false;
      for (; col < text.size(); ++col) {
        if (text[col] == '{') {
          ++depth;
        } else if (text[col] == '}' && --depth < 0) {
          scope_over = true;
          break;
        }
      }
      if (scope_over) {
        break;
      }
      ++line;
      col = 0;
    }
    if (!closed) {
      findings->push_back(
          {kTraceSpan, path, static_cast<int>(i) + 1,
           std::string("BatchStep") + "Begin emitted without a matching BatchStep" +
               "End or RAII BatchStep" +
               "Span in the enclosing scope; an early return would leak an open span — "
               "prefer trace::BatchStep" "Span"});
    }
  }
}

void CheckIncludeGuard(const std::string& path, const std::vector<std::string>& raw_lines,
                       std::vector<Finding>* findings) {
  if (!IsHeader(path)) {
    return;
  }
  bool in_block = false;
  for (const std::string& raw : raw_lines) {
    const std::string code = StripComments(raw, &in_block);
    if (std::regex_search(code, IfndefRe()) || std::regex_search(code, PragmaOnceRe())) {
      return;  // guarded
    }
    // Any other preprocessor directive or code before the guard means the
    // header is effectively unguarded.
    std::string trimmed;
    for (char c : code) {
      if (!isspace(static_cast<unsigned char>(c))) {
        trimmed.push_back(c);
      }
    }
    if (!trimmed.empty()) {
      break;
    }
  }
  if (!raw_lines.empty() && Suppressed(raw_lines[0], kMissingGuard)) {
    return;
  }
  findings->push_back({kMissingGuard, path, 1,
                       "header has neither an #ifndef include guard nor #pragma once"});
}

}  // namespace

std::vector<std::string> RuleNames() {
  return {kRawMutex,      kRawAtomic,           kStatusNodiscard,
          kSleepInTest,   kNakedNew,            kThreadDetach,
          kMissingGuard,  kMutexLockTemporary,  kStatusSwitch,
          kTraceSpan,     kRawSocketFd,         kRawSimd,
          kGetenvOutsideInit, kVolatileThreading};
}

std::vector<Finding> LintContent(const std::string& path, const std::string& content) {
  std::vector<Finding> findings;
  std::vector<std::string> raw_lines;
  {
    std::istringstream stream(content);
    std::string line;
    while (std::getline(stream, line)) {
      raw_lines.push_back(line);
    }
  }
  std::vector<std::string> code_lines;
  code_lines.reserve(raw_lines.size());
  bool in_block = false;
  for (const std::string& raw : raw_lines) {
    code_lines.push_back(StripComments(raw, &in_block));
  }
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    CheckLine(path, static_cast<int>(i) + 1, raw_lines[i], code_lines[i], &findings);
  }
  CheckGetenv(path, raw_lines, code_lines, &findings);
  CheckStatusSwitches(path, raw_lines, code_lines, &findings);
  CheckTraceSpans(path, raw_lines, code_lines, &findings);
  CheckIncludeGuard(path, raw_lines, &findings);
  return findings;
}

std::vector<Finding> LintFile(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) {
    return {{kIoError, path, 0, "cannot open file"}};
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return LintContent(path, buffer.str());
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
      << finding.message;
  return out.str();
}

}  // namespace lint
}  // namespace vlora
