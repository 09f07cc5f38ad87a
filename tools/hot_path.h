// Hot-path purity analysis behind vlora_lint --hot-path.
//
// VLORA_HOT (src/common/annotations.h) marks serving fast-path entry points;
// tools/hot_paths.toml lists the same functions under [roots] plus a
// [boundaries] stop-list of functions the traversal must not expand through
// (cold paths, one-time initialisation, by-design blocking). The pass builds
// the whole-tree call graph on tools/callgraph.h, computes everything
// reachable from the roots, and flags operations that do not belong on a
// fast path:
//
//   hot-path-alloc      heap allocation: operator new, make_shared /
//                       make_unique, container growth (push_back, resize,
//                       insert, ...), std::string / std::to_string /
//                       stringstream construction
//   hot-path-blocking   CondVar::Wait / WaitForMs, WaitIdle / WaitDrained,
//                       thread sleeps and joins, VLORA_BLOCKING_REGION
//   hot-path-io         stdio, fstreams, socket syscalls
//   hot-path-getenv     environment reads (hoist to init-time instead)
//   hot-path-throw      throw expressions
//   hot-root-mismatch   a VLORA_HOT function missing from [roots], a [roots]
//                       entry without the annotation, or a stale [boundaries]
//                       entry naming no known function
//
// Unlike the lock-order pass this one widens the call graph on purpose:
// lambdas are scanned as part of the enclosing function (they run on the
// calling thread), free functions are tracked, unresolved member calls fan
// out to every class defining the method, and chained singleton calls
// (`Tracer::Global().Emit(...)`) resolve by method name. False
// positives are expected to be silenced per line with
// `vlora-lint: allow(<rule>)` plus a one-line justification, or stopped
// wholesale with a [boundaries] entry.

#ifndef VLORA_TOOLS_HOT_PATH_H_
#define VLORA_TOOLS_HOT_PATH_H_

#include <map>
#include <string>
#include <vector>

#include "tools/callgraph.h"
#include "tools/lint_rules.h"

namespace vlora {
namespace lint {

struct HotPathConfig {
  // Qualified function -> human description, e.g.
  // "ClusterServer::Submit" -> "request admission fast path".
  std::map<std::string, std::string> roots;
  // Qualified function -> reason the traversal stops there.
  std::map<std::string, std::string> boundaries;
};

// Parses tools/hot_paths.toml ([roots] and [boundaries] sections). Returns
// false and fills *error on malformed input.
bool ParseHotPaths(const std::string& content, HotPathConfig* out, std::string* error);

// Runs the hot-path analysis over the given files against the config.
std::vector<Finding> CheckHotPaths(const HotPathConfig& config,
                                   const std::vector<SourceFile>& files);

// Filesystem wrapper: loads `toml_path`, collects .h/.cc/.cpp files under
// each root directory, and runs CheckHotPaths.
std::vector<Finding> CheckHotPathsOverTree(const std::string& toml_path,
                                           const std::vector<std::string>& roots);

}  // namespace lint
}  // namespace vlora

#endif  // VLORA_TOOLS_HOT_PATH_H_
