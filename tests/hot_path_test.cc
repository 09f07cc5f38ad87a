// Unit tests for the hot-path purity pass (tools/hot_path.h), built on the
// call-graph framework, over synthetic source trees with a bad twin that
// must be flagged and a good twin that must stay silent. Snippet text is
// assembled from adjacent string literals so the whole-tree per-line scan
// does not trip on this file's own test data.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/hot_path.h"

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

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) {
    n += f.rule == rule ? 1 : 0;
  }
  return n;
}

// --- Hot-path purity ------------------------------------------------------

// A header annotating Engine::Serve as the single hot root.
std::string HotHeader() {
  return std::string("#ifndef HP_H_\n#define HP_H_\n") +
         "class Engine {\n public:\n  void Serve() VLORA_HOT;\n" +
         "  void Cold();\n private:\n  Buffer buf_;\n};\n" +
         "class Buffer {\n public:\n  void Push(int v);\n};\n#endif\n";
}

HotPathConfig ServeConfig() {
  HotPathConfig config;
  config.roots["Engine::Serve"] = "test root";
  return config;
}

TEST(HotPathTest, FlagsEachViolationClassOnTheBadTwin) {
  const std::string cc = std::string("#include \"hp.h\"\n") +
                         "void Engine::Serve() {\n" +
                         "  int* p = ne" "w int[4];\n" +
                         "  auto q = std::make_unique<int>(3);\n" +
                         "  cv_.Wait(mu_);\n" +
                         "  std::this_thread::sleep" "_for(ms);\n" +
                         "  fprintf(stderr, \"x\");\n" +
                         "  const char* env = get" "env(\"X\");\n" +
                         "  th" "row std::runtime_error(\"no\");\n" +
                         "}\n";
  const std::vector<Finding> findings =
      CheckHotPaths(ServeConfig(), {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", cc}});
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 2) << MessagesFor(findings, "hot-path-alloc");
  EXPECT_EQ(CountRule(findings, "hot-path-blocking"), 2)
      << MessagesFor(findings, "hot-path-blocking");
  EXPECT_TRUE(HasRule(findings, "hot-path-io"));
  EXPECT_TRUE(HasRule(findings, "hot-path-get" "env"));
  EXPECT_TRUE(HasRule(findings, "hot-path-th" "row"));
  EXPECT_FALSE(HasRule(findings, "hot-root-mismatch"));
}

TEST(HotPathTest, GoodTwinAndColdFunctionsStayQuiet) {
  // The same operations in a function NOT reachable from a root are fine, and
  // a hot function doing pure arithmetic produces nothing.
  const std::string cc = std::string("#include \"hp.h\"\n") +
                         "void Engine::Serve() {\n" +
                         "  int acc = 0;\n" +
                         "  for (int i = 0; i < 4; ++i) {\n    acc += i;\n  }\n" +
                         "  (void)acc;\n" +
                         "}\n" +
                         "void Engine::Cold() {\n" +
                         "  scratch_.push_back(1);\n" +
                         "  th" "row std::runtime_error(\"fine here\");\n" +
                         "}\n";
  const std::vector<Finding> findings =
      CheckHotPaths(ServeConfig(), {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", cc}});
  EXPECT_TRUE(findings.empty()) << FormatFinding(findings[0]);
}

TEST(HotPathTest, SizedContainerConstructionIsAllocation) {
  // A container built with a size or contents allocates as surely as one
  // that grows; a default-constructed or empty-braced one allocates nothing.
  const std::string bad = std::string("#include \"hp.h\"\n") +
                          "void Engine::Serve() {\n" +
                          "  std::vector<char> tried(n, 0);\n" +
                          "  std::unordered_map<int, int> seen{{1, 2}};\n" +
                          "}\n";
  const std::vector<Finding> bad_findings =
      CheckHotPaths(ServeConfig(), {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", bad}});
  EXPECT_EQ(CountRule(bad_findings, "hot-path-alloc"), 2)
      << MessagesFor(bad_findings, "hot-path-alloc");

  const std::string good = std::string("#include \"hp.h\"\n") +
                           "void Engine::Serve() {\n" +
                           "  std::vector<char> tried;\n" +
                           "  std::map<int, int> seen{};\n" +
                           "  std::vector<int64_t>& depths = scratch_;\n" +
                           "}\n";
  const std::vector<Finding> good_findings =
      CheckHotPaths(ServeConfig(), {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", good}});
  EXPECT_TRUE(good_findings.empty()) << FormatFinding(good_findings[0]);
}

TEST(HotPathTest, ViolationsReachThroughCallChainsWithChainInMessage) {
  const std::string cc = std::string("#include \"hp.h\"\n") +
                         "void Buffer::Push(int v) {\n" +
                         "  items_.push_back(v);\n" +
                         "}\n" +
                         "void Engine::Serve() {\n" +
                         "  buf_.Push(1);\n" +
                         "}\n";
  const std::vector<Finding> findings =
      CheckHotPaths(ServeConfig(), {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", cc}});
  ASSERT_TRUE(HasRule(findings, "hot-path-alloc"));
  const std::string msgs = MessagesFor(findings, "hot-path-alloc");
  EXPECT_NE(msgs.find("Engine::Serve -> Buffer::Push"), std::string::npos) << msgs;
}

TEST(HotPathTest, TypedReceiverResolvesToItsOwnClass) {
  // `completions` is a Counter whose Add is defined inline in its header, so
  // the call must not fan out to Table::Add, an unrelated allocating method
  // of the same name. A call on a pure-virtual method still reaches every
  // override.
  const std::string header = std::string("#ifndef HP_H_\n#define HP_H_\n") +
                             "class Counter {\n public:\n" +
                             "  void Add(long delta) { value_ += delta; }\n" +
                             " private:\n  long value_ = 0;\n};\n" +
                             "class Table {\n public:\n  void Add(float* row);\n};\n" +
                             "class Base {\n public:\n  void Serve() VLORA_HOT;\n" +
                             "  virtual void Pump() = 0;\n};\n" +
                             "class Impl : public Base {\n public:\n  void Pump() override;\n};\n" +
                             "#endif\n";
  const std::string cc = std::string("#include \"hp.h\"\n") +
                         "void Table::Add(float* row) {\n  rows_.push_back(row);\n}\n" +
                         "void Impl::Pump() {\n  queue_.push_back(1);\n}\n" +
                         "void Base::Serve() {\n" +
                         "  static Counter* const completions = Registry::Global().counter(\"x\");\n" +
                         "  completions->Add(1);\n" +
                         "  this->Pump();\n" +
                         "}\n";
  HotPathConfig config;
  config.roots["Base::Serve"] = "test root";
  const std::vector<Finding> findings =
      CheckHotPaths(config, {{"src/x/hp.h", header}, {"src/x/hp.cc", cc}});
  const std::string msgs = MessagesFor(findings, "hot-path-alloc");
  EXPECT_EQ(msgs.find("Table::Add"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("Base::Serve -> Impl::Pump"), std::string::npos) << msgs;
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 1) << msgs;
}

// A base whose hot root calls a pure-virtual Pump, and an Impl that writes
// Pump's body inside its class in the header.
std::string InlinePumpHeader(const std::string& pump_body) {
  return std::string("#ifndef HP_H_\n#define HP_H_\n") +
         "class Base {\n public:\n  void Serve() VLORA_HOT;\n" +
         "  virtual void Pump() = 0;\n};\n" +
         "class Impl : public Base {\n private:\n  void Pump() override {\n    " + pump_body +
         "\n  }\n};\n#endif\n";
}

const char kServeCallsPump[] = "#include \"hp.h\"\nvoid Base::Serve() {\n  this->Pump();\n}\n";

TEST(HotPathTest, AllocatingInClassBodyInAHeaderIsFlagged) {
  HotPathConfig config;
  config.roots["Base::Serve"] = "test root";
  const std::vector<Finding> findings = CheckHotPaths(
      config, {{"src/x/hp.h", InlinePumpHeader("scratch_.push_back(1);")},
               {"src/x/hp.cc", kServeCallsPump}});
  const std::string msgs = MessagesFor(findings, "hot-path-alloc");
  ASSERT_EQ(CountRule(findings, "hot-path-alloc"), 1) << msgs;
  EXPECT_EQ(findings.size(), 1u);
  EXPECT_NE(msgs.find("src/x/hp.h:11"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("Base::Serve -> Impl::Pump"), std::string::npos) << msgs;
}

TEST(HotPathTest, NonAllocatingInClassBodyInAHeaderStaysQuiet) {
  HotPathConfig config;
  config.roots["Base::Serve"] = "test root";
  const std::vector<Finding> findings = CheckHotPaths(
      config, {{"src/x/hp.h", InlinePumpHeader("cv_.NotifyOne();")},
               {"src/x/hp.cc", kServeCallsPump}});
  EXPECT_TRUE(findings.empty()) << FormatFinding(findings[0]);
}

TEST(HotPathTest, BoundariesStopTheTraversal) {
  const std::string cc = std::string("#include \"hp.h\"\n") +
                         "void Buffer::Push(int v) {\n" +
                         "  items_.push_back(v);\n" +
                         "}\n" +
                         "void Engine::Serve() {\n" +
                         "  buf_.Push(1);\n" +
                         "}\n";
  HotPathConfig config = ServeConfig();
  config.boundaries["Buffer::Push"] = "bounded ring, audited by hand";
  const std::vector<Finding> findings =
      CheckHotPaths(config, {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", cc}});
  EXPECT_TRUE(findings.empty()) << FormatFinding(findings[0]);
}

TEST(HotPathTest, LambdasInsideHotFunctionsAreScanned) {
  // The hot-path posture inlines lambdas: work dispatched inline still runs
  // on the serving thread.
  const std::string cc = std::string("#include \"hp.h\"\n") +
                         "void Engine::Serve() {\n" +
                         "  auto grow = [&] {\n" +
                         "    scratch_.push_back(1);\n" +
                         "  };\n" +
                         "  grow();\n" +
                         "}\n";
  const std::vector<Finding> findings =
      CheckHotPaths(ServeConfig(), {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", cc}});
  EXPECT_TRUE(HasRule(findings, "hot-path-alloc"));
}

TEST(HotPathTest, PerLineAllowSuppresses) {
  const std::string cc = std::string("#include \"hp.h\"\n") +
                         "void Engine::Serve() {\n" +
                         "  scratch_.push_back(1);  // vlora-lint: allow(hot-path-alloc) amortized\n" +
                         "}\n";
  const std::vector<Finding> findings =
      CheckHotPaths(ServeConfig(), {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", cc}});
  EXPECT_TRUE(findings.empty()) << FormatFinding(findings[0]);
}

TEST(HotPathTest, RootRegistryAndAnnotationsAreCrossChecked) {
  // Serve is annotated but not registered; Ghost is registered but neither
  // annotated nor defined; the boundary names no known function.
  const std::string cc = std::string("#include \"hp.h\"\n") +
                         "void Engine::Serve() {}\n";
  HotPathConfig config;
  config.roots["Engine::Ghost"] = "gone";
  config.boundaries["Engine::Vanished"] = "gone too";
  const std::vector<Finding> findings =
      CheckHotPaths(config, {{"src/x/hp.h", HotHeader()}, {"src/x/hp.cc", cc}});
  const std::string msgs = MessagesFor(findings, "hot-root-mismatch");
  EXPECT_EQ(CountRule(findings, "hot-root-mismatch"), 3) << msgs;
  EXPECT_NE(msgs.find("'Engine::Serve' is marked VLORA_HOT but missing"), std::string::npos);
  EXPECT_NE(msgs.find("'Engine::Ghost' has no VLORA_HOT annotation"), std::string::npos);
  EXPECT_NE(msgs.find("stale [boundaries] entry 'Engine::Vanished'"), std::string::npos);
}

TEST(HotPathTest, ParseHotPathsReadsBothSections) {
  const std::string toml = std::string("# registry\n[roots]\n") +
                           "\"Engine::Serve\" = \"fast path\"\n" +
                           "[boundaries]\n\"Engine::Cold\" = \"cold by design\"\n";
  HotPathConfig config;
  std::string error;
  ASSERT_TRUE(ParseHotPaths(toml, &config, &error)) << error;
  EXPECT_EQ(config.roots.at("Engine::Serve"), "fast path");
  EXPECT_EQ(config.boundaries.at("Engine::Cold"), "cold by design");
  EXPECT_FALSE(ParseHotPaths("[nope]\nk = v\n", &config, &error));
}

}  // namespace
}  // namespace lint
}  // namespace vlora
