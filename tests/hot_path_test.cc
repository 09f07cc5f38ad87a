// Unit tests for the two analyses built on the call-graph framework: the
// hot-path purity pass (tools/hot_path.h) and the codec-symmetry pass
// (tools/codec_symmetry.h), each over synthetic source trees with a bad twin
// that must be flagged and a good twin that must stay silent. Snippet text is
// assembled from adjacent string literals so the whole-tree per-line scan
// does not trip on this file's own test data.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/codec_symmetry.h"
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

// --- Codec symmetry -------------------------------------------------------

TEST(CodecSymmetryTest, SymmetricPairStaysQuiet) {
  const std::string cc = std::string("#include \"wire.h\"\n") +
                         "void Msg::AppendTo(WireWriter& w) const {\n" +
                         "  w.Str(name);\n  w.SignedVarint(count);\n  w.F64(score);\n" +
                         "}\n" +
                         "bool Msg::Parse(WireReader& r, Msg* out) {\n" +
                         "  return r.Str(&out->name) && r.SignedVarint(&out->count) &&\n" +
                         "         r.F64(&out->score);\n" +
                         "}\n";
  const std::vector<Finding> findings = CheckCodecSymmetry({{"src/net/m.cc", cc}});
  EXPECT_TRUE(findings.empty()) << FormatFinding(findings[0]);
}

TEST(CodecSymmetryTest, FieldOrderDriftIsFlaggedWithPosition) {
  // Decoder reads count before name: classic silent wire corruption.
  const std::string cc = std::string("#include \"wire.h\"\n") +
                         "void Msg::AppendTo(WireWriter& w) const {\n" +
                         "  w.Str(name);\n  w.SignedVarint(count);\n" +
                         "}\n" +
                         "bool Msg::Parse(WireReader& r, Msg* out) {\n" +
                         "  return r.SignedVarint(&out->count) && r.Str(&out->name);\n" +
                         "}\n";
  const std::vector<Finding> findings = CheckCodecSymmetry({{"src/net/m.cc", cc}});
  ASSERT_TRUE(HasRule(findings, "codec-asymmetry"));
  const std::string msgs = MessagesFor(findings, "codec-asymmetry");
  EXPECT_NE(msgs.find("diverge at position 0"), std::string::npos) << msgs;
}

TEST(CodecSymmetryTest, FieldCountDriftIsFlagged) {
  // Encoder grew a trailing field the decoder never learned about.
  const std::string cc = std::string("#include \"wire.h\"\n") +
                         "void Msg::AppendTo(WireWriter& w) const {\n" +
                         "  w.Str(name);\n  w.U64(seed);\n" +
                         "}\n" +
                         "bool Msg::Parse(WireReader& r, Msg* out) {\n" +
                         "  return r.Str(&out->name);\n" +
                         "}\n";
  const std::vector<Finding> findings = CheckCodecSymmetry({{"src/net/m.cc", cc}});
  ASSERT_TRUE(HasRule(findings, "codec-asymmetry"));
  const std::string msgs = MessagesFor(findings, "codec-asymmetry");
  EXPECT_NE(msgs.find("(2 primitives)"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("(1 primitives)"), std::string::npos) << msgs;
}

TEST(CodecSymmetryTest, HelperCallsSpliceInSourceOrderEvenOnSharedLines) {
  // The decoder calls its helper on the same physical line as inline wire
  // ops; the helper's sequence must splice in at its true position, not after
  // the line's other ops.
  const std::string cc = std::string("#include \"wire.h\"\n") +
                         "void AppendHeader(WireWriter& w, const Msg& m) {\n" +
                         "  w.Str(m.name);\n" +
                         "}\n" +
                         "bool ParseHeader(WireReader& r, Msg* m) {\n" +
                         "  return r.Str(&m->name);\n" +
                         "}\n" +
                         "void Msg::AppendTo(WireWriter& w) const {\n" +
                         "  AppendHeader(w, *this);\n" +
                         "  w.SignedVarint(count);\n" +
                         "}\n" +
                         "bool Msg::Parse(WireReader& r, Msg* out) {\n" +
                         "  return ParseHeader(r, out) && r.SignedVarint(&out->count);\n" +
                         "}\n";
  const std::vector<Finding> findings = CheckCodecSymmetry({{"src/net/m.cc", cc}});
  EXPECT_TRUE(findings.empty()) << FormatFinding(findings[0]);
}

TEST(CodecSymmetryTest, UnpairedCodecsAreFlaggedAndDirectivesExempt) {
  const std::string unpaired = std::string("#include \"wire.h\"\n") +
                               "void AppendOrphan(WireWriter& w, int v) {\n" +
                               "  w.SignedVarint(v);\n" +
                               "}\n";
  const std::vector<Finding> findings = CheckCodecSymmetry({{"src/net/m.cc", unpaired}});
  ASSERT_TRUE(HasRule(findings, "codec-unpaired"));
  EXPECT_NE(MessagesFor(findings, "codec-unpaired").find("expected 'ParseOrphan'"),
            std::string::npos);

  const std::string wrapped = std::string("// vlora-codec: wrapper(AppendOrphan)\n") + unpaired;
  EXPECT_FALSE(HasRule(CheckCodecSymmetry({{"src/net/m.cc", wrapped}}), "codec-unpaired"));
}

TEST(CodecSymmetryTest, PairDirectiveComparesUnconventionalNames) {
  // Frame(…) and Unwrap(…) fit no naming convention; the directive pairs them
  // and the comparison still catches drift.
  const std::string cc = std::string("#include \"wire.h\"\n") +
                         "// vlora-codec: pair(Frame, Unwrap)\n" +
                         "void Frame(WireWriter& w) {\n" +
                         "  w.U16(magic);\n  w.U8(version);\n" +
                         "}\n" +
                         "bool Unwrap(WireReader& r) {\n" +
                         "  return r.U16(&magic) && r.U32(&version);\n" +
                         "}\n";
  const std::vector<Finding> findings = CheckCodecSymmetry({{"src/net/m.cc", cc}});
  ASSERT_TRUE(HasRule(findings, "codec-asymmetry"));
  EXPECT_NE(MessagesFor(findings, "codec-asymmetry").find("diverge at position 1"),
            std::string::npos);
}

TEST(CodecSymmetryTest, WireTouchingFunctionWithNoConventionIsReported) {
  const std::string cc = std::string("#include \"wire.h\"\n") +
                         "void Mangle(WireWriter& w) {\n" +
                         "  w.U8(x);\n" +
                         "}\n";
  const std::vector<Finding> findings = CheckCodecSymmetry({{"src/net/m.cc", cc}});
  ASSERT_TRUE(HasRule(findings, "codec-unpaired"));
  EXPECT_NE(MessagesFor(findings, "codec-unpaired").find("fits no"), std::string::npos);
}

TEST(CodecSymmetryTest, PerLineAllowSuppresses) {
  const std::string cc = std::string("#include \"wire.h\"\n") +
                         "void Msg::AppendTo(WireWriter& w) const {\n" +
                         "  // vlora-lint: allow(codec-asymmetry) versioned field, reader gated\n" +
                         "  w.Str(name);\n  w.U64(extra);\n" +
                         "}\n" +
                         "bool Msg::Parse(WireReader& r, Msg* out) {\n" +
                         "  return r.Str(&out->name);\n" +
                         "}\n";
  EXPECT_FALSE(HasRule(CheckCodecSymmetry({{"src/net/m.cc", cc}}), "codec-asymmetry"));
}

}  // namespace
}  // namespace lint
}  // namespace vlora
