#include "tools/lock_order.h"

#include <algorithm>
#include <deque>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "tools/callgraph.h"

namespace vlora {
namespace lint {
namespace {

// Rule names assembled the same way lint_rules.cc does, so the whole-tree
// per-line scan never trips over this file's own pattern text.
const char kLockOrder[] = "lock-order";
const char kUnranked[] = "lock-unranked";

bool IsUnderSrc(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

struct LockDecl {
  std::string rank_name;
  std::string file;
  int line = 0;
};

struct FuncFacts {
  std::set<std::string> requires_locks;  // caller must already hold (REQUIRES)
  std::set<std::string> acquires;        // acquired inside (ACQUIRE / EXCLUDES / body locks)
};

struct Site {
  std::string file;
  int line = 0;
};

struct AcqEvent {
  std::string lock;
  std::vector<std::string> held;
  Site site;
  bool suppressed = false;
};

struct CallEvent {
  std::string caller;
  std::string callee;
  std::vector<std::string> held;
  Site site;
  bool suppressed = false;
};

struct Analysis {
  std::map<std::string, LockDecl> decls;  // "Class::mu_" or global name
  std::map<std::string, int> rank_enum;   // from sync.h
  bool saw_rank_enum = false;
  std::map<std::string, FuncFacts> facts;  // "Class::Method"
  std::vector<AcqEvent> acq_events;
  std::vector<CallEvent> call_events;
  std::vector<Finding> findings;
};

const std::regex& RankedMutexRe() {
  // `Mutex name{Rank::kX, ...}`.
  static const std::regex re("\\bMutex\\s+(\\w+)\\s*\\{\\s*Rank\\s*::\\s*(\\w+)");
  return re;
}

const std::regex& AnyMutexDeclRe() {
  static const std::regex re("\\bMutex\\s+(\\w+)\\s*[;{(=]");
  return re;
}

const std::regex& MutexLockUseRe() {
  static const std::regex re("\\bMutex" "Lock\\s+\\w+\\s*\\(\\s*&\\s*([^()]+)\\)");
  return re;
}

// ---------------------------------------------------------------------------
// Pass 1: declarations (via the callgraph framework) + the rank enum.
// ---------------------------------------------------------------------------

void ScanRankEnum(const SourceFile& file, Analysis* a) {
  bool in_block = false;
  bool in_enum = false;
  static const std::regex enum_start("enum\\s+class\\s+Rank\\b");
  static const std::regex enumerator("\\b(k\\w+)\\s*=\\s*(-?\\d+)");
  for (const std::string& raw : SplitLines(file.content)) {
    const std::string code = BlankStrings(StripComments(raw, &in_block));
    if (!in_enum) {
      if (std::regex_search(code, enum_start)) {
        in_enum = true;
        a->saw_rank_enum = true;
      }
      continue;
    }
    if (code.find("};") != std::string::npos) {
      break;
    }
    std::smatch m;
    std::string rest = code;
    while (std::regex_search(rest, m, enumerator)) {
      a->rank_enum[m[1].str()] = std::stoi(m[2].str());
      rest = m.suffix().str();
    }
  }
}

// The per-line declaration hook: ranked / unranked Mutex members.
void ScanMutexDeclLine(Analysis* a, const std::string& current_class, const std::string& code,
                       const std::string& raw, const std::string& path, int line_no) {
  std::smatch mm;
  if (std::regex_search(code, mm, RankedMutexRe())) {
    const std::string qual =
        current_class.empty() ? mm[1].str() : current_class + "::" + mm[1].str();
    a->decls[qual] = LockDecl{mm[2].str(), path, line_no};
  } else if (std::regex_search(code, mm, AnyMutexDeclRe())) {
    if (IsUnderSrc(path) && !IsSuppressed(raw, kUnranked)) {
      const std::string qual =
          current_class.empty() ? mm[1].str() : current_class + "::" + mm[1].str();
      a->findings.push_back(
          {kUnranked, path, line_no,
           "Mutex '" + qual + "' declared without a Rank; every mutex under src/ must "
           "carry one (see enum class Rank in src/common/sync.h)"});
    }
  }
}

// Lock annotations (REQUIRES / ACQUIRE / EXCLUDES) out of the framework's
// generic annotation index, lock names qualified by the declaring class.
void BuildFuncFacts(const CodeIndex& index, Analysis* a) {
  for (const auto& [qual, annos] : index.annotations) {
    const size_t sep = qual.rfind("::");
    const std::string cls = sep == std::string::npos ? "" : qual.substr(0, sep);
    FuncFacts& facts = a->facts[qual];
    for (const SigAnnotation& anno : annos) {
      if (anno.kind != "REQUIRES" && anno.kind != "ACQUIRE" && anno.kind != "EXCLUDES") {
        continue;
      }
      std::istringstream args(anno.args);
      std::string arg;
      while (std::getline(args, arg, ',')) {
        arg = TrimText(arg);
        while (!arg.empty() && (arg[0] == '&' || arg[0] == '*')) {
          arg = TrimText(arg.substr(1));
        }
        if (arg.rfind("this->", 0) == 0) {
          arg = arg.substr(6);
        }
        if (arg.empty()) {
          continue;
        }
        const std::string lock = cls.empty() ? arg : cls + "::" + arg;
        if (anno.kind == "REQUIRES") {
          facts.requires_locks.insert(lock);
        } else {
          // EXCLUDES is this codebase's idiom for "I lock this inside":
          // treat it like ACQUIRE for edge discovery.
          facts.acquires.insert(lock);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: function bodies, as a BodyClient holding the held-lock stack.
// ---------------------------------------------------------------------------

class LockBodyClient : public BodyClient {
 public:
  LockBodyClient(Analysis* a, const CodeIndex* index) : a_(a), index_(index) {}

  void ResetFile() { held_.clear(); }

  void OnFunctionEnter(const BodyWalker& walker, const std::string& signature,
                       int body_depth) override {
    (void)signature;
    held_.clear();
    auto facts = a_->facts.find(walker.fn_qual());
    if (facts != a_->facts.end()) {
      for (const std::string& lock : facts->second.requires_locks) {
        held_.push_back({lock, body_depth});
      }
    }
  }

  void OnBodyText(const BodyWalker& walker, const std::string& text, const std::string& raw,
                  int line_no, int depth_at_start) override {
    const bool suppressed_line = IsSuppressed(raw, kLockOrder);
    std::smatch m;
    std::string rest = text;
    while (std::regex_search(rest, m, MutexLockUseRe())) {
      const std::string lock = ResolveLockExpr(walker, m[1].str());
      if (!lock.empty()) {
        a_->acq_events.push_back({lock, HeldSnapshot(), {walker.path(), line_no},
                                  suppressed_line});
        a_->facts[walker.fn_qual()].acquires.insert(lock);
        held_.push_back({lock, depth_at_start});
      }
      rest = m.suffix().str();
    }
  }

  void OnCall(const BodyWalker& walker, const std::string& callee, const std::string& raw,
              int line_no) override {
    a_->call_events.push_back({walker.fn_qual(), callee, HeldSnapshot(),
                               {walker.path(), line_no}, IsSuppressed(raw, kLockOrder)});
  }

  void OnLineEnd(const BodyWalker& walker, int depth_after) override {
    (void)walker;
    while (!held_.empty() && held_.back().entry_depth > depth_after) {
      held_.pop_back();
    }
  }

  void OnFunctionExit(const BodyWalker& walker) override {
    (void)walker;
    held_.clear();
  }

 private:
  struct HeldLock {
    std::string lock;
    int entry_depth;
  };

  std::vector<std::string> HeldSnapshot() const {
    std::vector<std::string> out;
    out.reserve(held_.size());
    for (const HeldLock& h : held_) {
      out.push_back(h.lock);
    }
    return out;
  }

  // Resolves `expr` from `MutexLock lock(&expr)` to a declared lock name.
  std::string ResolveLockExpr(const BodyWalker& walker, const std::string& expr_in) const {
    const std::string expr = TrimText(expr_in);
    static const std::regex last_ident("(\\w+)\\s*$");
    std::smatch m;
    if (!std::regex_search(expr, m, last_ident)) {
      return "";
    }
    const std::string member = m[1].str();
    static const std::regex first_ident("^([A-Za-z_]\\w*)");
    std::smatch f;
    const bool has_receiver =
        expr.find('.') != std::string::npos || expr.find("->") != std::string::npos;
    if (has_receiver && std::regex_search(expr, f, first_ident) && f[1].str() != member) {
      const std::string cls = walker.ReceiverClass(f[1].str());
      if (!cls.empty() && a_->decls.count(cls + "::" + member)) {
        return cls + "::" + member;
      }
      return "";
    }
    if (a_->decls.count(walker.fn_class() + "::" + member)) {
      return walker.fn_class() + "::" + member;
    }
    if (a_->decls.count(member)) {
      return member;  // namespace-scope lock, e.g. g_emit_mutex
    }
    return "";
  }

  Analysis* a_;
  const CodeIndex* index_;
  std::vector<HeldLock> held_;
};

// ---------------------------------------------------------------------------
// Edge construction and checks.
// ---------------------------------------------------------------------------

struct Edge {
  std::string from;
  std::string to;
  Site site;
  std::string via;  // callee for call-derived edges, empty for direct nesting
  bool suppressed = false;
};

int RankOf(const Analysis& a, const std::string& lock, std::string* rank_name) {
  auto decl = a.decls.find(lock);
  if (decl == a.decls.end()) {
    return -1;
  }
  auto rank = a.rank_enum.find(decl->second.rank_name);
  if (rank == a.rank_enum.end()) {
    return -1;
  }
  *rank_name = rank->first;
  return rank->second;
}

void CheckEdges(Analysis* a) {
  // Transitive may-acquire sets over the call graph (fixpoint).
  std::map<std::string, std::set<std::string>> may_acquire;
  std::map<std::string, std::set<std::string>> callees;
  for (const auto& [fn, facts] : a->facts) {
    may_acquire[fn] = facts.acquires;
  }
  for (const CallEvent& call : a->call_events) {
    callees[call.caller].insert(call.callee);
  }
  PropagateTransitive(callees, &may_acquire);

  std::vector<Edge> edges;
  for (const AcqEvent& acq : a->acq_events) {
    for (const std::string& held : acq.held) {
      edges.push_back({held, acq.lock, acq.site, "", acq.suppressed});
    }
  }
  for (const CallEvent& call : a->call_events) {
    if (call.held.empty()) {
      continue;
    }
    auto acquired = may_acquire.find(call.callee);
    if (acquired == may_acquire.end()) {
      continue;
    }
    for (const std::string& held : call.held) {
      for (const std::string& lock : acquired->second) {
        // A callee that REQUIRES the held lock re-lists it via EXCLUDES
        // nowhere in this tree; a true self-edge is a self-deadlock and
        // stays reportable.
        edges.push_back({held, lock, call.site, call.callee, call.suppressed});
      }
    }
  }

  // Adjacency for cycle-path reporting.
  std::map<std::string, std::set<std::string>> adj;
  for (const Edge& e : edges) {
    adj[e.from].insert(e.to);
  }

  std::set<std::string> reported;  // "from|to"
  for (const Edge& e : edges) {
    std::string from_rank, to_rank;
    const int from_value = RankOf(*a, e.from, &from_rank);
    const int to_value = RankOf(*a, e.to, &to_rank);
    if (from_value < 0 || to_value < 0) {
      continue;  // unranked: reported at its declaration (an unknown rank does not compile)
    }
    if (to_value < from_value) {
      continue;  // strictly decreasing: legal
    }
    if (e.suppressed) {
      continue;
    }
    const std::string key = e.from + "|" + e.to;
    if (!reported.insert(key).second) {
      continue;
    }
    std::string msg = "acquiring '" + e.to + "' (" + to_rank + "/" + std::to_string(to_value) +
                      ") while holding '" + e.from + "' (" + from_rank + "/" +
                      std::to_string(from_value) + "): lock rank must strictly decrease";
    if (!e.via.empty()) {
      msg += " (via call to '" + e.via + "')";
    }
    if (e.from == e.to) {
      msg += " [same mutex: self-deadlock]";
    } else {
      // BFS back from `to` to `from`: a path closes the cycle and is the
      // conflicting chain worth showing.
      std::map<std::string, std::string> parent;
      std::deque<std::string> queue{e.to};
      parent[e.to] = "";
      bool found = false;
      while (!queue.empty() && !found) {
        const std::string node = queue.front();
        queue.pop_front();
        for (const std::string& next : adj[node]) {
          if (parent.count(next)) {
            continue;
          }
          parent[next] = node;
          if (next == e.from) {
            found = true;
            break;
          }
          queue.push_back(next);
        }
      }
      if (found) {
        std::vector<std::string> chain;
        for (std::string node = e.from; !node.empty(); node = parent[node]) {
          chain.push_back(node);
          if (node == e.to) {
            break;
          }
        }
        std::reverse(chain.begin(), chain.end());
        msg += "; cycle: ";
        for (const std::string& node : chain) {
          msg += node + " -> ";
        }
        msg += e.to;
      }
    }
    a->findings.push_back({kLockOrder, e.site.file, e.site.line, msg});
  }
}

}  // namespace

std::vector<Finding> CheckLockOrder(const std::vector<SourceFile>& files) {
  Analysis a;
  // The lock-order pass keeps the original narrow posture: lambdas are
  // separate contexts, unresolved calls are skipped, free functions are not
  // tracked. sync.h defines the lock primitives themselves, so only its rank
  // enum is read.
  ScanOptions options;
  options.index_file = [](const std::string& path) { return !IsSyncHeader(path); };
  for (const SourceFile& file : files) {
    if (IsSyncHeader(file.path)) {
      ScanRankEnum(file, &a);
    }
  }
  CodeIndex index;
  BuildCodeIndex(files, options, &index,
                 [&a](const std::string& current_class, const std::string& code,
                      const std::string& raw, const std::string& path, int line_no) {
                   ScanMutexDeclLine(&a, current_class, code, raw, path, line_no);
                 });
  BuildFuncFacts(index, &a);
  for (const SourceFile& file : files) {
    if (PathEndsWith(file.path, ".cc") || PathEndsWith(file.path, ".cpp")) {
      IndexDefinitions(file, options, &index);
    }
  }
  LockBodyClient client(&a, &index);
  for (const SourceFile& file : files) {
    if (PathEndsWith(file.path, ".cc") || PathEndsWith(file.path, ".cpp")) {
      client.ResetFile();
      BodyWalker walker(&index, &options, &client);
      walker.ScanFile(file);
    }
  }
  if (a.saw_rank_enum) {
    CheckEdges(&a);
  } else {
    a.findings.push_back({kUnranked, "src/common/sync.h", 0,
                          "no enum class Rank found: the lock hierarchy has no ranks, so no "
                          "acquisition can be checked"});
  }
  std::sort(a.findings.begin(), a.findings.end(), [](const Finding& x, const Finding& y) {
    if (x.file != y.file) {
      return x.file < y.file;
    }
    if (x.line != y.line) {
      return x.line < y.line;
    }
    return x.rule < y.rule;
  });
  return a.findings;
}

std::vector<Finding> CheckLockOrderOverTree(const std::vector<std::string>& roots) {
  std::vector<Finding> findings;
  const std::vector<SourceFile> files = LoadSourceTree(roots, &findings);
  std::vector<Finding> analysis = CheckLockOrder(files);
  findings.insert(findings.end(), analysis.begin(), analysis.end());
  return findings;
}

}  // namespace lint
}  // namespace vlora
