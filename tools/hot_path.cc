#include "tools/hot_path.h"

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace vlora {
namespace lint {
namespace {

// Rule names assembled from adjacent literals the same way lint_rules.cc
// does, so the whole-tree per-line scan never trips over this file's own
// pattern text.
const char kAlloc[] = "hot-path-alloc";
const char kBlocking[] = "hot-path-blocking";
const char kIo[] = "hot-path-io";
const char kGetenv[] = "hot-path-getenv";
const char kThrow[] = "hot-path-throw";
const char kRootMismatch[] = "hot-root-mismatch";
const char kIoError[] = "io-error";

// One textual pattern that is a purity violation when it appears in a
// function reachable from a hot root.
struct HotRule {
  const char* rule;
  const char* what;
  std::regex re;
};

const std::vector<HotRule>& HotRules() {
  static const std::vector<HotRule> rules = [] {
    std::vector<HotRule> r;
    // Allocation.
    r.push_back({kAlloc, "operator ne" "w", std::regex("\\bne" "w\\b")});
    r.push_back({kAlloc, "make_shared/make_unique",
                 std::regex("\\bmake_(?:shared|unique)\\s*<")});
    r.push_back({kAlloc, "container growth",
                 std::regex("(?:\\.|->)(?:push_back|emplace_back|emplace|resize|reserve|"
                            "assign|append|insert)\\s*\\(|\\bstd::(?:vector|deque|(?:unordered_)?"
                            "(?:map|set))\\s*<[^;=]*>\\s+\\w+\\s*[({]\\s*[^)}\\s]")});
    r.push_back({kAlloc, "std::string construction",
                 std::regex("\\bstd::(?:to_)?string\\s*[({]|\\bstd::string\\s+\\w+")});
    r.push_back({kAlloc, "stringstream construction",
                 std::regex("\\bstd::o?i?stringstream\\b")});
    // Blocking.
    r.push_back({kBlocking, "condition-variable wait",
                 std::regex("(?:\\.|->)Wait(?:ForMs)?\\s*\\(")});
    r.push_back({kBlocking, "Wait" "Idle/Wait" "Drained",
                 std::regex("\\bWait(?:Idle|Drained|ForReadmissions)\\s*\\(")});
    r.push_back({kBlocking, "thread sleep",
                 std::regex("\\b(?:sleep" "_for|sleep" "_until|u" "sleep|nano" "sleep)\\s*\\(")});
    r.push_back({kBlocking, "thread join", std::regex("(?:\\.|->)join\\s*\\(\\s*\\)")});
    r.push_back({kBlocking, "declared blocking region",
                 std::regex("\\bVLORA_BLOCKING" "_REGION\\b")});
    // File / socket I/O.
    r.push_back({kIo, "stdio call",
                 std::regex("\\bf(?:open|close|read|write|printf|puts|flush|gets)\\s*\\(|"
                            "\\bprintf\\s*\\(")});
    r.push_back({kIo, "fstream construction",
                 std::regex("\\bstd::[io]?fstream\\b")});
    r.push_back({kIo, "socket syscall",
                 std::regex("\\b(?:socket|connect|accept|bind|listen|sendmsg|recvmsg)\\s*\\(|"
                            "::(?:read|write|send|recv)\\s*\\(")});
    // Environment.
    r.push_back({kGetenv, "environment read", std::regex("\\bget" "env\\s*\\(")});
    // Exceptions.
    r.push_back({kThrow, "th" "row expression", std::regex("\\bth" "row\\b")});
    return r;
  }();
  return rules;
}

struct Site {
  std::string file;
  int line = 0;
};

struct Violation {
  std::string rule;
  std::string what;
  Site site;
};

class HotBodyClient : public BodyClient {
 public:
  void OnBodyText(const BodyWalker& walker, const std::string& text, const std::string& raw,
                  int line_no, int depth_at_start) override {
    (void)depth_at_start;
    for (const HotRule& rule : HotRules()) {
      if (!std::regex_search(text, rule.re)) {
        continue;
      }
      if (IsSuppressed(raw, rule.rule)) {
        continue;
      }
      violations_[walker.fn_qual()].push_back(
          {rule.rule, rule.what, {walker.path(), line_no}});
    }
  }

  void OnCall(const BodyWalker& walker, const std::string& callee, const std::string& raw,
              int line_no) override {
    (void)raw;
    (void)line_no;
    callees_[walker.fn_qual()].insert(callee);
  }

  const std::map<std::string, std::vector<Violation>>& violations() const { return violations_; }
  const std::map<std::string, std::set<std::string>>& callees() const { return callees_; }

 private:
  std::map<std::string, std::vector<Violation>> violations_;
  std::map<std::string, std::set<std::string>> callees_;
};

std::string JoinChain(const std::vector<std::string>& chain) {
  std::string out;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) {
      out += " -> ";
    }
    out += chain[i];
  }
  return out;
}

}  // namespace

bool ParseHotPaths(const std::string& content, HotPathConfig* out, std::string* error) {
  out->roots.clear();
  out->boundaries.clear();
  std::vector<TomlEntry> entries;
  if (!ParseTomlTables(content, {"roots", "boundaries"}, &entries, error)) {
    return false;
  }
  for (const TomlEntry& entry : entries) {
    if (entry.section == "roots") {
      out->roots[entry.key] = entry.value;
    } else {
      out->boundaries[entry.key] = entry.value;
    }
  }
  return true;
}

std::vector<Finding> CheckHotPaths(const HotPathConfig& config,
                                   const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;

  // The hot-path posture widens everything the lock-order pass keeps narrow:
  // fast-path lambdas run on the calling thread, free functions matter
  // (kernels, trace emitters), a method written inside its class is as much
  // a function as one defined in a .cc, and an unresolved virtual call must
  // be assumed to reach every implementation.
  ScanOptions options;
  options.index_free_functions = true;
  options.inline_lambdas = true;
  options.over_approximate_unresolved = true;
  options.chained_calls = true;
  options.index_inline_bodies = true;

  CodeIndex index;
  BuildCodeIndex(files, options, &index, nullptr);
  for (const SourceFile& file : files) {
    if (PathEndsWith(file.path, ".cc") || PathEndsWith(file.path, ".cpp")) {
      IndexDefinitions(file, options, &index);
    }
  }

  HotBodyClient client;
  for (const SourceFile& file : files) {
    BodyWalker walker(&index, &options, &client);
    walker.ScanFile(file);
  }

  // Cross-check VLORA_HOT annotations against the [roots] registry, both
  // directions, and [boundaries] entries against known functions.
  std::map<std::string, SigAnnotation> hot_annotated;  // qual -> where
  for (const auto& [qual, annos] : index.annotations) {
    for (const SigAnnotation& anno : annos) {
      if (anno.kind == "HOT") {
        hot_annotated.emplace(qual, anno);
      }
    }
  }
  for (const auto& [qual, anno] : hot_annotated) {
    if (config.roots.find(qual) == config.roots.end()) {
      findings.push_back({kRootMismatch, anno.file, anno.line,
                          "'" + qual + "' is marked VLORA_HOT but missing from [roots] in "
                          "tools/hot_paths.toml"});
    }
  }
  for (const auto& [qual, desc] : config.roots) {
    (void)desc;
    if (hot_annotated.find(qual) == hot_annotated.end()) {
      findings.push_back({kRootMismatch, "tools/hot_paths.toml", 0,
                          "[roots] entry '" + qual + "' has no VLORA_HOT annotation on its "
                          "declaration (or the function no longer exists)"});
    }
  }
  for (const auto& [qual, reason] : config.boundaries) {
    (void)reason;
    if (index.known_funcs.find(qual) == index.known_funcs.end()) {
      findings.push_back({kRootMismatch, "tools/hot_paths.toml", 0,
                          "stale [boundaries] entry '" + qual +
                              "': no such function found in the scanned tree"});
    }
  }

  // Reachability from the roots, stopping at boundaries, then report every
  // violation inside the reachable set with its call chain.
  std::set<std::string> roots;
  for (const auto& [qual, desc] : config.roots) {
    (void)desc;
    roots.insert(qual);
  }
  std::set<std::string> boundaries;
  for (const auto& [qual, reason] : config.boundaries) {
    (void)reason;
    boundaries.insert(qual);
  }
  const Reachability reach = ComputeReachable(roots, client.callees(), boundaries);
  for (const auto& [fn, violations] : client.violations()) {
    if (!reach.Contains(fn)) {
      continue;
    }
    const std::string chain = JoinChain(reach.ChainTo(fn));
    for (const Violation& v : violations) {
      findings.push_back({v.rule, v.site.file, v.site.line,
                          v.what + " in '" + fn + "' on the hot path: " + chain});
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& x, const Finding& y) {
    if (x.file != y.file) {
      return x.file < y.file;
    }
    if (x.line != y.line) {
      return x.line < y.line;
    }
    return x.rule < y.rule;
  });
  return findings;
}

std::vector<Finding> CheckHotPathsOverTree(const std::string& toml_path,
                                           const std::vector<std::string>& roots) {
  std::ifstream toml_stream(toml_path);
  if (!toml_stream) {
    return {{kIoError, toml_path, 0, "cannot open hot paths file"}};
  }
  std::ostringstream toml_buf;
  toml_buf << toml_stream.rdbuf();
  HotPathConfig config;
  std::string error;
  if (!ParseHotPaths(toml_buf.str(), &config, &error)) {
    return {{kIoError, toml_path, 0, "malformed hot paths file: " + error}};
  }
  std::vector<Finding> findings;
  const std::vector<SourceFile> files = LoadSourceTree(roots, &findings);
  std::vector<Finding> analysis = CheckHotPaths(config, files);
  findings.insert(findings.end(), analysis.begin(), analysis.end());
  return findings;
}

}  // namespace lint
}  // namespace vlora
