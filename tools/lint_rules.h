// Repo-local lint rules behind vlora_lint (see tools/vlora_lint.cc).
//
// Each rule is a line-oriented check over one file's text. Rules are pure
// functions of (path, content) so tests can feed synthetic snippets without
// touching the filesystem; the CLI layers directory walking on top.
//
// Rules:
//   raw-mutex             std::mutex / std::condition_variable / std::lock_*
//                         outside src/common/sync.h (use vlora::Mutex, which
//                         carries the thread-safety annotations)
//   raw-atomic            std::atomic*, memory_order or <atomic> under src/
//                         outside src/common/sync.h (use vlora::RelaxedAtomic
//                         or vlora::PublishedAtomic, whose type fixes the
//                         memory order)
//   status-not-nodiscard  class Status / class Result declared without
//                         [[nodiscard]] (class-level nodiscard is what makes
//                         every ignored Status return a compile error)
//   sleep-in-test         sleep_for / sleep_until under tests/ (poll loops
//                         hide race conditions; use CondVar-backed waits like
//                         ClusterServer::WaitForReadmissions)
//   naked-new             `new T` outside a smart-pointer factory
//   thread-detach         .detach() — detached threads outlive their state
//   missing-include-guard header with neither an #ifndef guard nor
//                         #pragma once in its first non-comment lines
//   mutexlock-temporary   MutexLock constructed as an unnamed temporary
//                         (`MutexLock(mu);`) — it unlocks at the end of the
//                         statement, guarding nothing
//   status-switch-exhaustive
//                         switch over StatusCode that neither covers every
//                         enumerator nor has a default: new codes would fall
//                         through silently
//   trace-span-unclosed   explicit BatchStepBegin emission with no matching
//                         BatchStepEnd / RAII BatchStepSpan in the enclosing
//                         scope — an early return would leak an open span and
//                         corrupt the Chrome trace's B/E nesting (tests/
//                         exempt; they assert on Begin events alone)
//   raw-socket-fd         naked socket()/socketpair()/accept()/close() calls
//                         outside src/net/ — descriptors must live in the
//                         RAII net::Fd wrapper (src/net/fd.h) so no error
//                         path can leak a connection
//   raw-simd-intrinsic    _mm*/_mm256*/_mm512* intrinsic calls or
//                         <immintrin.h> includes outside src/kernels/ — SIMD
//                         lives behind the micro-kernel tables so every other
//                         layer stays portable and the scalar fallback stays
//                         the single source of truth for semantics
//   volatile-threading    the volatile keyword under src/ — volatile neither
//                         orders nor publishes anything between threads; the
//                         sanctioned idiom is vlora::RelaxedAtomic or
//                         vlora::PublishedAtomic (src/common/sync.h)
//   getenv-outside-init   getenv under src/ in a function whose name does not
//                         say init-time (Init* / *FromEnv / main) — the
//                         environment is configuration, read once at startup
//                         and cached; reading it on a serving path costs a
//                         libc call per hit and diverges from the startup
//                         snapshot (enclosing function found heuristically:
//                         nearest preceding column-0 definition)
//
// A finding on line N is suppressed by appending the comment
//   // vlora-lint: allow(<rule>)
// to that line. Suppressions are deliberate and visible in review.

#ifndef VLORA_TOOLS_LINT_RULES_H_
#define VLORA_TOOLS_LINT_RULES_H_

#include <string>
#include <vector>

namespace vlora {
namespace lint {

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;  // 1-based; 0 for whole-file findings
  std::string message;

  bool operator==(const Finding& o) const {
    return rule == o.rule && file == o.file && line == o.line;
  }
};

// Names of every rule, in report order.
std::vector<std::string> RuleNames();

// True for src/common/sync.h, the one file that may use the standard mutex,
// condition-variable and atomic types (raw-mutex, raw-atomic, and the
// lock-order pass, which reads the lock primitives' own definitions there).
bool IsSyncHeader(const std::string& path);

// Runs every applicable rule over one file's content. `path` decides
// applicability (tests/ rules, header rules, the sync.h exemption); it is
// matched on suffix so absolute and relative paths behave the same.
std::vector<Finding> LintContent(const std::string& path, const std::string& content);

// Reads `path` and lints it. Missing/unreadable files yield a single
// "io-error" finding rather than a crash.
std::vector<Finding> LintFile(const std::string& path);

// One "file:line: [rule] message" line per finding.
std::string FormatFinding(const Finding& finding);

// Strips // and /* */ comment text from one line of C++; `in_block` carries
// the /* state across lines, string literals are preserved. Shared with the
// lock-order pass (tools/lock_order.cc) so both layers see the same code.
std::string StripComments(const std::string& line, bool* in_block);

}  // namespace lint
}  // namespace vlora

#endif  // VLORA_TOOLS_LINT_RULES_H_
