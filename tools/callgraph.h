// Reusable call-graph framework for vlora_lint's file-graph passes.
//
// This is the machinery that originally grew inside the lock-order pass
// (tools/lock_order.cc) and is now shared by every whole-tree analysis:
//
//   * text utilities   — comment stripping lives in lint_rules.h; here are
//                        string blanking, trimming, line splitting, the
//                        per-line allow() suppression test
//   * CodeIndex        — class member types, known functions ("Class::Method"
//                        and free functions), method-name -> defining-classes,
//                        and every VLORA_* annotation attached to a signature
//   * BodyWalker       — a line-oriented scanner over function bodies (in a
//                        .cc every definition, in a header the bodies
//                        written inside their class) that tracks brace
//                        depth, signatures spanning lines, typed locals and
//                        parameters, lambda contexts, and reports resolved
//                        call edges to a client
//   * graph helpers    — transitive-attribute fixpoint (MayAcquire-style),
//                        reachability with parent chains for reporting
//   * ParseTomlTables  — the minimal TOML subset of tools/hot_paths.toml
//   * LoadSourceTree   — filesystem walking into SourceFile lists
//
// The analysis posture is inherited from the lock-order pass: a heuristic
// over comment-stripped, string-blanked source — no real C++ parse. Call
// edges are only created when the callee resolves confidently (same class, a
// typed member / local receiver, or a method name defined by exactly one
// class). ScanOptions widens this per pass: the hot-path pass inlines lambda
// bodies into their enclosing function (they run on the calling thread),
// tracks free functions, walks methods defined inside their class, and
// over-approximates virtual calls by fanning an unresolved method name out to
// every class that defines it. The lock-order pass keeps the original narrow
// settings: lambdas are separate contexts and unresolved calls are skipped,
// trading recall for zero false positives.
//
// DESIGN.md §13 documents the framework and how to add a new pass.

#ifndef VLORA_TOOLS_CALLGRAPH_H_
#define VLORA_TOOLS_CALLGRAPH_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint_rules.h"

namespace vlora {
namespace lint {

// A source file handed to an analysis; `path` decides applicability the same
// way LintContent does, so tests can feed synthetic trees.
struct SourceFile {
  std::string path;
  std::string content;
};

// ---------------------------------------------------------------------------
// Text utilities.
// ---------------------------------------------------------------------------

// Leading/trailing whitespace removed.
std::string TrimText(const std::string& s);

// Blanks out the contents of string and char literals (quotes stay, so token
// boundaries survive). Run after StripComments; keeps brace counting and the
// regex scans from reading literal text like lock names as code.
std::string BlankStrings(const std::string& code);

int CountChar(const std::string& s, char c);

// True when `raw_line` carries the `vlora-lint: allow(<rule>)` marker.
bool IsSuppressed(const std::string& raw_line, const char* rule);

// Last CamelCase identifier in a declaration's type text — unwraps smart
// pointers and containers ("std::vector<std::unique_ptr<Replica>>" -> Replica).
std::string LastClassIdent(const std::string& type_text);

std::vector<std::string> SplitLines(const std::string& content);

bool PathEndsWith(const std::string& s, const std::string& suffix);

// ---------------------------------------------------------------------------
// Pass 1: the code index.
// ---------------------------------------------------------------------------

// One VLORA_* annotation attached to a function signature, e.g.
// kind = "REQUIRES", args = "mutex_" — or kind = "HOT", args = "" for the
// parenthesis-free marker macros.
struct SigAnnotation {
  std::string kind;
  std::string args;
  std::string file;
  int line = 0;
};

struct CodeIndex {
  // "Class::member_" -> member's class type (for call-receiver resolution).
  std::map<std::string, std::string> member_types;
  // Functions with a known definition or an annotated declaration:
  // "Class::Method" always; bare free-function names when
  // ScanOptions::index_free_functions is set.
  std::set<std::string> known_funcs;
  // Method name -> every class that declares/defines it.
  std::map<std::string, std::set<std::string>> method_classes;
  // "Class::Method" whose body is written inside its class (a header-inline
  // method), virtual ones excepted. A call on a receiver typed to the class
  // resolves there instead of fanning out to every class defining the name.
  std::set<std::string> inline_bodies;
  // Free functions (namespace scope), bare names.
  std::set<std::string> free_funcs;
  // Qualified function -> its VLORA_* annotations, in declaration order.
  std::map<std::string, std::vector<SigAnnotation>> annotations;
};

// A per-line hook into the declaration scan, for pass-specific declaration
// syntax (ranked Mutex members, rank enums). Receives the comment-stripped,
// string-blanked code with the innermost enclosing class ("" at namespace
// scope).
using DeclLineFn = std::function<void(const std::string& current_class, const std::string& code,
                                      const std::string& raw, const std::string& path, int line)>;

struct ScanOptions {
  // Record namespace-scope function definitions (column-0 heuristic) in
  // known_funcs/free_funcs, and walk their bodies.
  bool index_free_functions = false;
  // Lambda bodies: false = separate contexts with nothing inherited from the
  // enclosing function (they may run on other threads — the lock-order
  // posture); true = scanned as part of the enclosing function (they run on
  // the calling thread — the hot-path posture).
  bool inline_lambdas = false;
  // Virtual-call over-approximation: a member call whose receiver class does
  // not resolve (or resolves to a class without that method) fans out to
  // every class defining the method, instead of only a unique definer.
  bool over_approximate_unresolved = false;
  // Also resolve chained calls (`Registry::Global().counter(...)`) by method
  // name, so singleton-accessor idioms produce edges.
  bool chained_calls = false;
  // Index methods whose body is written inside their class (virtual ones
  // included) as known functions, so calls resolve to them (the hot-path
  // posture); a walk over the header then scans their bodies.
  bool index_inline_bodies = false;
  // Files for which declarations/definitions are indexed and scanned; the
  // default accepts everything. (The lock-order pass excludes sync.h: it
  // defines the lock primitives themselves.)
  std::function<bool(const std::string& path)> index_file;
};

// Scans declarations in every file: class tracking, member types, annotated
// signatures. `on_decl_line` (nullable) runs for each line of each indexed
// file.
void BuildCodeIndex(const std::vector<SourceFile>& files, const ScanOptions& options,
                    CodeIndex* index, const DeclLineFn& on_decl_line);

// Adds out-of-class definitions (`Class::Method(` anywhere; free functions at
// column 0 when index_free_functions) from one file to the index. Run over
// every .cc before body scanning so cross-file calls resolve.
void IndexDefinitions(const SourceFile& file, const ScanOptions& options, CodeIndex* index);

// The innermost class or struct around a line (an enum class is not a class
// scope). Call Enter with each line's code and the brace depth before it,
// then Leave with the depth after it.
class ClassScopes {
 public:
  void Enter(const std::string& code, int depth);
  void Leave(int depth);
  // "" and -1 outside every class.
  std::string current() const { return stack_.empty() ? "" : stack_.back().name; }
  int depth() const { return stack_.empty() ? -1 : stack_.back().depth; }

 private:
  struct Frame {
    std::string name;
    int depth;
  };
  std::vector<Frame> stack_;
  std::string pending_;  // `class X` seen, its brace not yet
};

// ---------------------------------------------------------------------------
// Pass 2: the body walker.
// ---------------------------------------------------------------------------

class BodyWalker;

// Client hooks, invoked in source order. For each body line the order is:
// OnBodyText (pass-specific syntax: acquisitions, rule matches) then OnCall
// for every resolved call on the line, then OnLineEnd with the brace depth
// after the line (for scope-stack pops).
class BodyClient {
 public:
  virtual ~BodyClient() = default;
  // `body_depth` is the depth just inside the function's opening brace.
  virtual void OnFunctionEnter(const BodyWalker& walker, const std::string& signature,
                               int body_depth) {
    (void)walker;
    (void)signature;
    (void)body_depth;
  }
  virtual void OnBodyText(const BodyWalker& walker, const std::string& text,
                          const std::string& raw, int line_no, int depth_at_start) {
    (void)walker;
    (void)text;
    (void)raw;
    (void)line_no;
    (void)depth_at_start;
  }
  virtual void OnCall(const BodyWalker& walker, const std::string& callee, const std::string& raw,
                      int line_no) {
    (void)walker;
    (void)callee;
    (void)raw;
    (void)line_no;
  }
  virtual void OnLineEnd(const BodyWalker& walker, int depth_after) {
    (void)walker;
    (void)depth_after;
  }
  virtual void OnFunctionExit(const BodyWalker& walker) { (void)walker; }
};

// Walks one file's function bodies line by line. Construct once per file. A
// header (.h) is walked for the bodies written inside their class only, each
// named as its class's method.
class BodyWalker {
 public:
  BodyWalker(const CodeIndex* index, const ScanOptions* options, BodyClient* client);

  void ScanFile(const SourceFile& file);

  // Current function ("" between functions). fn_class is empty for free
  // functions; fn_qual is "Class::Method" or the bare free-function name.
  const std::string& fn_class() const { return fn_class_; }
  const std::string& fn_qual() const { return fn_qual_; }
  const std::string& path() const { return path_; }

  // Resolves the class a call receiver refers to ("this", a typed local or
  // parameter, or a member of the current class); empty when unknown.
  std::string ReceiverClass(const std::string& receiver) const;

 private:
  void ProcessLine(const std::string& raw, int line_no);
  void ScanBodyText(std::string text, const std::string& raw, int line_no, int depth_at_start);
  void EnterFunction(const std::string& sig, int close_depth);
  void EmitCallsFor(const std::string& text, const std::string& raw, int line_no);
  void PopScopes();

  const CodeIndex* index_;
  const ScanOptions* options_;
  BodyClient* client_;
  std::string path_;
  bool header_ = false;
  ClassScopes classes_;  // headers only
  int depth_ = 0;
  bool in_block_ = false;
  bool in_func_ = false;
  bool collecting_sig_ = false;
  std::string sig_buf_;
  std::string fn_class_;
  std::string fn_qual_;
  int fn_close_depth_ = 0;
  int lambda_suppress_depth_ = -1;  // active when >= 0 (isolated-lambda mode)
  std::map<std::string, std::string> locals_;  // var -> type class
};

// ---------------------------------------------------------------------------
// Graph helpers.
// ---------------------------------------------------------------------------

// Transitive closure of per-function attribute sets over the call graph:
// each caller's set absorbs its callees' sets until nothing changes. This is
// the MayAcquire fixpoint from the lock-order pass, generalised.
void PropagateTransitive(const std::map<std::string, std::set<std::string>>& callees,
                         std::map<std::string, std::set<std::string>>* attrs);

// BFS reachability from `roots` over `callees`, never expanding through a
// function listed in `boundaries`. `parent` maps each reached function to the
// caller it was first discovered from (roots map to "").
struct Reachability {
  std::map<std::string, std::string> parent;

  bool Contains(const std::string& fn) const { return parent.count(fn) != 0; }
  // "root -> ... -> fn", for finding messages.
  std::vector<std::string> ChainTo(const std::string& fn) const;
};

Reachability ComputeReachable(const std::set<std::string>& roots,
                              const std::map<std::string, std::set<std::string>>& callees,
                              const std::set<std::string>& boundaries);

// ---------------------------------------------------------------------------
// Config files and the filesystem.
// ---------------------------------------------------------------------------

// One `key = value` line from a pass registry file, with the [section] it
// appeared under and its 1-based line number (for pass-specific diagnostics
// like integer-parse errors).
struct TomlEntry {
  std::string section;
  std::string key;
  std::string value;
  int line = 0;
};

// Parses the minimal TOML subset shared by the pass registries: [section]
// headers restricted to `allowed_sections`, `key = value` with optionally
// quoted keys and values, and # comments. Values stay strings; passes
// convert. Returns false and fills *error on malformed input.
bool ParseTomlTables(const std::string& content, const std::set<std::string>& allowed_sections,
                     std::vector<TomlEntry>* out, std::string* error);

// Recursively collects .h/.cc/.cpp files under each root (a root may also be
// a single file) and loads them, sorted by path. IO problems surface as
// io-error findings instead of crashes.
std::vector<SourceFile> LoadSourceTree(const std::vector<std::string>& roots,
                                       std::vector<Finding>* findings);

}  // namespace lint
}  // namespace vlora

#endif  // VLORA_TOOLS_CALLGRAPH_H_
