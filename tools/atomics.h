// Atomics-discipline analysis behind vlora_lint --atomics.
//
// tools/atomics.toml registers every std::atomic declaration under src/ by
// qualified name ("Class::member_", a bare name for namespace-scope globals,
// "Function::local" for function-local atomics) and assigns it one of five
// memory-ordering protocols:
//
//   counter          relaxed RMW / relaxed loads, never used to synchronize
//                    other data — every op must state memory_order_relaxed
//                    explicitly (Counter/Gauge values, depth gauges,
//                    sequence numbers, the log level)
//   flag             a release store published by one side, an acquire load
//                    consumed by the other (replica dead_, shutdown flags)
//   published-value  flag plus named sides: release publishes only in the
//                    functions listed under publish=, acquire consumes only
//                    in the functions listed under consume=
//   epoch-seqlock    the Tracer ring idiom: the owning thread reads/writes
//                    with relaxed, publishes with release, the collector
//                    reads with acquire; any explicit order short of seq_cst
//                    is legal anywhere
//   init-once        written once (release) during initialisation, acquire
//                    loads afterwards — same order rules as flag
//
// The pass scans the tree (class members in headers, namespace globals,
// function locals, and every .load/.store/.fetch_*/.exchange/
// .compare_exchange_* site including in-class inline method bodies) and
// reports:
//
//   atomic-unregistered      a std::atomic declaration missing from the
//                            registry
//   atomic-stale-entry       a registry key matching no declaration
//   atomic-bad-protocol      unknown protocol name, publish=/consume= on a
//                            protocol that takes none, a published-value
//                            entry missing either side, or a named function
//                            the tree does not define
//   atomic-protocol-mismatch an operation whose order the protocol forbids:
//                            anything but explicit relaxed on a counter, a
//                            default (implicit seq_cst) order on a
//                            synchronizing atomic, a relaxed store / load on
//                            a flag, a publish or consume outside the
//                            declared published-value sides, explicit
//                            seq_cst on an epoch-seqlock
//   atomic-relaxed-sync      a relaxed RMW on an atomic declared as
//                            synchronizing (flag / published-value /
//                            epoch-seqlock / init-once)
//   atomic-unpaired-release  release-class stores with no acquire-class load
//                            anywhere in the scanned tree (and
//   atomic-unpaired-acquire  ... the reverse)
//   atomic-seqcst-hot        a seq_cst operation (explicit or defaulted) on
//                            a registered atomic in a function reachable
//                            from a VLORA_HOT root (tools/hot_paths.toml),
//                            reported with the root -> operation call chain
//   atomic-mixed-access      operator-form access to a registered atomic
//                            (`flag_ = true`, `if (flag_)`, `++count_`) —
//                            an implicit seq_cst op that states no protocol
//
// Every finding honors the per-line `vlora-lint: allow(<rule>)` suppression.
// The call graph reuses the wide hot-path posture from tools/callgraph.h
// (lambdas inline, free functions tracked, unresolved member calls fanned
// out, in-class inline method definitions indexed) so edges into
// header-defined accessors like Counter::Add resolve. DESIGN.md §14
// documents the registry; §13 documents the framework.

#ifndef VLORA_TOOLS_ATOMICS_H_
#define VLORA_TOOLS_ATOMICS_H_

#include <map>
#include <string>
#include <vector>

#include "tools/callgraph.h"
#include "tools/hot_path.h"
#include "tools/lint_rules.h"

namespace vlora {
namespace lint {

// One registry entry: the protocol name plus the published-value side lists.
struct AtomicProtocolSpec {
  std::string protocol;
  std::vector<std::string> publishers;  // publish= functions (published-value)
  std::vector<std::string> consumers;   // consume= functions (published-value)
  std::vector<std::string> bad_tokens;  // unparseable spec tokens, reported
  int line = 0;                         // registry line, for drift findings
};

struct AtomicsConfig {
  // Qualified atomic name -> its protocol spec.
  std::map<std::string, AtomicProtocolSpec> atomics;
  // Optional [options] hot_paths = "<file>": the hot-path registry whose
  // [roots]/[boundaries] drive the atomic-seqcst-hot reachability check.
  // Resolved relative to the registry file by CheckAtomicsOverTree.
  std::string hot_paths;
  // Where the registry was loaded from; drift findings anchor here.
  std::string registry_path = "tools/atomics.toml";
};

// Parses tools/atomics.toml ([atomics] and [options] sections). Returns
// false and fills *error on malformed TOML; protocol-level problems are
// reported as findings by CheckAtomics instead so twins can assert on them.
bool ParseAtomicsRegistry(const std::string& content, AtomicsConfig* out, std::string* error);

// Runs the atomics-discipline analysis over the given files. `hot` supplies
// the VLORA_HOT roots and boundaries for the seq_cst reachability rule; pass
// an empty config to skip that rule.
std::vector<Finding> CheckAtomics(const AtomicsConfig& config, const HotPathConfig& hot,
                                  const std::vector<SourceFile>& files);

// Filesystem wrapper: loads `toml_path`, the hot-path registry it names,
// and the .h/.cc/.cpp files under each root, then runs CheckAtomics.
std::vector<Finding> CheckAtomicsOverTree(const std::string& toml_path,
                                          const std::vector<std::string>& roots);

}  // namespace lint
}  // namespace vlora

#endif  // VLORA_TOOLS_ATOMICS_H_
