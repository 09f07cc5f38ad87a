// Whole-tree lock-order analysis behind vlora_lint --lock-order.
//
// Unlike the per-line rules in lint_rules.h this is a file-graph pass: it
// reads the rank values from `enum class Rank` in src/common/sync.h, parses
// every ranked vlora::Mutex declaration, the REQUIRES / ACQUIRE / EXCLUDES
// thread-safety annotations, and the MutexLock nesting inside .cc function
// bodies, then checks that every implied acquisition edge strictly decreases
// in rank. Because the declared ranks are a total order, rank consistency is
// exactly the DAG property — any violating edge is reported together with the
// conflicting chain that closes the cycle when one exists.
//
// The hierarchy is stated once, in code: the enum gives each rank its value
// and each Mutex declaration names its rank. The runtime checker in
// src/common/sync.h enforces the same ranks in VLORA_LOCK_RANK_CHECKS builds,
// and DESIGN.md §9 documents them. Rules:
//
//   lock-order     an acquisition edge that does not strictly decrease in
//                  rank (same rank counts: two same-rank locks taken in
//                  opposite orders by two threads deadlock)
//   lock-unranked  a Mutex under src/ declared without a Rank, or a tree
//                  with no Rank enum
//
// The analysis is a heuristic over comment-stripped source (no real C++
// parse): lambda bodies are analysed as separate contexts with an empty held
// set (they run on other threads), and call edges are only created when the
// callee resolves confidently (same class, a typed member / local receiver,
// or a method name defined by exactly one class). Unresolved calls are
// skipped, trading recall for zero false positives. The shared machinery
// (declaration index, body walker, fixpoint) lives in tools/callgraph.h; this
// pass keeps only the lock-specific syntax and checks.

#ifndef VLORA_TOOLS_LOCK_ORDER_H_
#define VLORA_TOOLS_LOCK_ORDER_H_

#include <string>
#include <vector>

#include "tools/callgraph.h"
#include "tools/lint_rules.h"

namespace vlora {
namespace lint {

// Runs the lock-order analysis over the given files; the rank enum is read
// from the file whose path ends in src/common/sync.h. (SourceFile is the
// framework type from tools/callgraph.h.)
std::vector<Finding> CheckLockOrder(const std::vector<SourceFile>& files);

// Filesystem wrapper: recursively collects .h/.cc/.cpp files under each root
// and runs CheckLockOrder. IO problems surface as io-error findings instead
// of crashes.
std::vector<Finding> CheckLockOrderOverTree(const std::vector<std::string>& roots);

}  // namespace lint
}  // namespace vlora

#endif  // VLORA_TOOLS_LOCK_ORDER_H_
