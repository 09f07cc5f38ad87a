// Unit tests for the vlora_lint lock-order pass (tools/lock_order.h): the
// acquisition-edge analysis over synthetic source trees, each carrying a
// synthetic src/common/sync.h whose Rank enum is the hierarchy — each
// violation has a good twin that must stay silent. Snippet text is assembled
// from adjacent string literals so the whole-tree per-line scan does not trip
// on this file's own test data.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lock_order.h"

namespace vlora {
namespace lint {
namespace {

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::string MessagesFor(const std::vector<Finding>& findings, const std::string& rule) {
  std::string out;
  for (const Finding& f : findings) {
    if (f.rule == rule) {
      out += FormatFinding(f) + "\n";
    }
  }
  return out;
}

// The synthetic hierarchy: a sync.h whose Rank enum lists `enumerators`.
SourceFile SyncHeader(const std::string& enumerators = "kHigh = 20,\n  kLow = 10,") {
  return {"src/common/sync.h", std::string("#ifndef SYNC_H_\n#define SYNC_H_\n") +
                                   "enum class Rank" " : int {\n  " + enumerators +
                                   "\n};\n#endif\n"};
}

// A header declaring one high-ranked and one low-ranked lock.
std::string TwinHeader() {
  return std::string("#ifndef T_H_\n#define T_H_\n") +
         "class Outer {\n public:\n  void Run();\n  void Helper() VLORA_REQUIRES(mu_);\n" +
         " private:\n  Mutex" " mu_{Rank" "::kHigh, \"Outer::mu_\"};\n  Inner inner_;\n};\n" +
         "class Inner {\n public:\n  void Touch() VLORA_EXCLUDES(mu_);\n" +
         " private:\n  Mutex" " mu_{Rank" "::kLow, \"Inner::mu_\"};\n};\n#endif\n";
}

TEST(LockOrderTest, CorrectNestingIsSilent) {
  const std::string good_cc =
      std::string("#include \"t.h\"\n") +
      "void Outer::Run() {\n"
      "  Mutex" "Lock lock(&mu_);\n"
      "  {\n"
      "    Mutex" "Lock inner_lock(&inner_.mu_);\n"  // low under high: legal
      "  }\n"
      "}\n";
  const std::vector<Finding> findings =
      CheckLockOrder({SyncHeader(), {"src/t.h", TwinHeader()}, {"src/t.cc", good_cc}});
  EXPECT_FALSE(HasRule(findings, "lock-order")) << MessagesFor(findings, "lock-order");
  EXPECT_FALSE(HasRule(findings, "lock-unranked"));
}

TEST(LockOrderTest, InvertedNestingIsFlaggedWithBothNames) {
  const std::string bad_cc =
      std::string("#include \"t.h\"\n") +
      "void Inner::Touch() {\n"
      "  Mutex" "Lock lock(&mu_);\n"
      "}\n"
      "void Outer::Run() {\n"
      "  Mutex" "Lock inner_lock(&inner_.mu_);\n"
      "  Mutex" "Lock lock(&mu_);\n"  // high acquired under low: inversion
      "}\n";
  const std::vector<Finding> findings =
      CheckLockOrder({SyncHeader(), {"src/t.h", TwinHeader()}, {"src/t.cc", bad_cc}});
  ASSERT_TRUE(HasRule(findings, "lock-order"));
  const std::string report = MessagesFor(findings, "lock-order");
  EXPECT_NE(report.find("Outer::mu_"), std::string::npos) << report;
  EXPECT_NE(report.find("Inner::mu_"), std::string::npos) << report;
  EXPECT_NE(report.find("src/t.cc:7"), std::string::npos) << report;
}

TEST(LockOrderTest, SameRankNestingIsFlagged) {
  const std::string header =
      std::string("#ifndef S_H_\n#define S_H_\nclass A {\n") +
      "  Mutex" " left_{Rank" "::kSame, \"A::left_\"};\n" +
      "  Mutex" " right_{Rank" "::kSame, \"A::right_\"};\n};\n#endif\n";
  const std::string body =
      std::string("void A::F() {\n  Mutex" "Lock l(&left_);\n  Mutex" "Lock r(&right_);\n}\n");
  const std::vector<Finding> findings =
      CheckLockOrder({SyncHeader("kSame = 10,"), {"src/s.h", header}, {"src/s.cc", body}});
  EXPECT_TRUE(HasRule(findings, "lock-order")) << "same-rank nesting must be rejected";
}

TEST(LockOrderTest, RequiresAnnotationSeedsTheHeldSet) {
  // Helper() REQUIRES the high lock; its body never takes it explicitly, yet
  // acquiring the low lock inside is an edge — and a legal one. The inverted
  // twin requires the LOW lock and acquires the high one: violation.
  const std::string good_cc =
      std::string("void Outer::Helper() {\n  Mutex" "Lock lock(&inner_.mu_);\n}\n");
  const std::vector<Finding> good =
      CheckLockOrder({SyncHeader(), {"src/t.h", TwinHeader()}, {"src/t.cc", good_cc}});
  EXPECT_FALSE(HasRule(good, "lock-order")) << MessagesFor(good, "lock-order");

  const std::string bad_header =
      std::string("#ifndef B_H_\n#define B_H_\n") +
      "class Inner {\n public:\n  void Helper() VLORA_REQUIRES(mu_);\n" +
      " private:\n  Mutex" " mu_{Rank" "::kLow, \"Inner::mu_\"};\n  Outer outer_;\n};\n" +
      "class Outer {\n private:\n  Mutex" " mu_{Rank" "::kHigh, \"Outer::mu_\"};\n" +
      "  friend class Inner;\n};\n#endif\n";
  const std::string bad_cc =
      std::string("void Inner::Helper() {\n  Mutex" "Lock lock(&outer_.mu_);\n}\n");
  const std::vector<Finding> bad =
      CheckLockOrder({SyncHeader(), {"src/b.h", bad_header}, {"src/b.cc", bad_cc}});
  EXPECT_TRUE(HasRule(bad, "lock-order"));
}

TEST(LockOrderTest, CallGraphEdgeThroughAnnotatedCalleeIsFlagged) {
  // Inner::Grab EXCLUDES (i.e. acquires) the high lock; calling it while
  // holding the low lock is an inversion even though no MutexLock of the high
  // lock appears in the caller.
  const std::string header =
      std::string("#ifndef C_H_\n#define C_H_\n") +
      "class Target {\n public:\n  void Grab() VLORA_EXCLUDES(high_);\n" +
      " private:\n  Mutex" " high_{Rank" "::kHigh, \"Target::high_\"};\n};\n" +
      "class Holder {\n public:\n  void Call();\n" +
      " private:\n  Mutex" " low_{Rank" "::kLow, \"Holder::low_\"};\n  Target target_;\n};\n" +
      "#endif\n";
  const std::string body =
      std::string("void Holder::Call() {\n  Mutex" "Lock lock(&low_);\n") +
      "  target_.Grab();\n}\n" +
      "void Target::Grab() {\n  Mutex" "Lock lock(&high_);\n}\n";
  const std::vector<Finding> findings =
      CheckLockOrder({SyncHeader(), {"src/c.h", header}, {"src/c.cc", body}});
  ASSERT_TRUE(HasRule(findings, "lock-order"));
  const std::string report = MessagesFor(findings, "lock-order");
  EXPECT_NE(report.find("Target::Grab"), std::string::npos) << report;
}

TEST(LockOrderTest, CycleAcrossTwoFilesReportsThePath) {
  // Two classes each take their own lock then the other's: a real AB/BA
  // deadlock. Whichever direction the rank table blesses, the other edge
  // violates, and the report spells out the cycle path.
  const std::string header =
      std::string("#ifndef P_H_\n#define P_H_\n") +
      "class Pong;\n" +
      "class Ping {\n public:\n  void Go(Pong* pong);\n" +
      "  Mutex" " mu_{Rank" "::kHigh, \"Ping::mu_\"};\n};\n" +
      "class Pong {\n public:\n  void Go(Ping* ping);\n" +
      "  Mutex" " mu_{Rank" "::kLow, \"Pong::mu_\"};\n};\n#endif\n";
  const std::string ping_cc =
      std::string("void Ping::Go(Pong* pong) {\n") +
      "  Mutex" "Lock lock(&mu_);\n  Mutex" "Lock other(&pong->mu_);\n}\n";
  const std::string pong_cc =
      std::string("void Pong::Go(Ping* ping) {\n") +
      "  Mutex" "Lock lock(&mu_);\n  Mutex" "Lock other(&ping->mu_);\n}\n";
  const std::vector<Finding> findings = CheckLockOrder(
      {SyncHeader(), {"src/p.h", header}, {"src/ping.cc", ping_cc}, {"src/pong.cc", pong_cc}});
  ASSERT_TRUE(HasRule(findings, "lock-order"));
  const std::string report = MessagesFor(findings, "lock-order");
  // The violating edge is Pong::mu_ -> Ping::mu_ (low before high); the
  // legal reverse edge exists in ping.cc, closing the cycle.
  EXPECT_NE(report.find("cycle:"), std::string::npos) << report;
  EXPECT_NE(report.find("src/pong.cc"), std::string::npos) << report;
}

TEST(LockOrderTest, UnrankedMutexUnderSrcIsFlagged) {
  const std::string header =
      std::string("#ifndef U_H_\n#define U_H_\nclass A {\n") +
      "  Mutex" " mu_;\n};\n#endif\n";
  const std::vector<Finding> findings =
      CheckLockOrder({SyncHeader("kLow = 10,"), {"src/u.h", header}});
  ASSERT_TRUE(HasRule(findings, "lock-unranked"));
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LockOrderTest, TreeWithoutRankEnumIsReported) {
  // Without the enum no lock has a rank value, so the inversion below could
  // not be seen; the pass must say so instead of passing the tree.
  const std::string bad_cc =
      std::string("#include \"t.h\"\n") +
      "void Outer::Run() {\n"
      "  Mutex" "Lock inner_lock(&inner_.mu_);\n"
      "  Mutex" "Lock lock(&mu_);\n"
      "}\n";
  const std::vector<Finding> findings =
      CheckLockOrder({{"src/t.h", TwinHeader()}, {"src/t.cc", bad_cc}});
  ASSERT_EQ(findings.size(), 1u) << MessagesFor(findings, "lock-unranked");
  EXPECT_EQ(findings[0].rule, "lock-unranked");
  EXPECT_NE(findings[0].message.find("enum class Rank"), std::string::npos)
      << FormatFinding(findings[0]);
  // The same tree with the enum present reports the inversion instead.
  EXPECT_TRUE(HasRule(
      CheckLockOrder({SyncHeader(), {"src/t.h", TwinHeader()}, {"src/t.cc", bad_cc}}),
      "lock-order"));
}

TEST(LockOrderTest, SuppressionCommentSilencesTheEdge) {
  const std::string bad_cc =
      std::string("#include \"t.h\"\n") +
      "void Outer::Run() {\n"
      "  Mutex" "Lock inner_lock(&inner_.mu_);\n"
      "  Mutex" "Lock lock(&mu_);  // vlora-lint: " "allow(lock-order)\n"
      "}\n";
  const std::vector<Finding> findings =
      CheckLockOrder({SyncHeader(), {"src/t.h", TwinHeader()}, {"src/t.cc", bad_cc}});
  EXPECT_FALSE(HasRule(findings, "lock-order")) << MessagesFor(findings, "lock-order");
}

TEST(LockOrderTest, LambdaBodyIsASeparateContext) {
  // The callback posted from inside the critical section runs on another
  // thread with no inherited locks: re-taking the same high lock there is NOT
  // an edge from the enclosing function.
  const std::string body_cc =
      std::string("#include \"t.h\"\n") +
      "void Outer::Run() {\n"
      "  Mutex" "Lock lock(&mu_);\n"
      "  pool->Post([this] {\n"
      "    Mutex" "Lock again(&mu_);\n"
      "  });\n"
      "}\n";
  const std::vector<Finding> findings =
      CheckLockOrder({SyncHeader(), {"src/t.h", TwinHeader()}, {"src/t.cc", body_cc}});
  EXPECT_FALSE(HasRule(findings, "lock-order")) << MessagesFor(findings, "lock-order");
}

}  // namespace
}  // namespace lint
}  // namespace vlora
