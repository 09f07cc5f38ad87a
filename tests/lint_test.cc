// Unit tests for the vlora_lint rule library: each rule fires on a synthetic
// bad snippet at exactly the expected line, stays quiet on the good twin, and
// honours the allow() suppression. Snippet text is assembled from adjacent
// string literals so the whole-tree lint scan (vlora_lint_tree) does not trip
// over this file's own test data.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lint_rules.h"

namespace vlora {
namespace lint {
namespace {

std::vector<std::string> RulesAt(const std::vector<Finding>& findings, int line) {
  std::vector<std::string> rules;
  for (const Finding& finding : findings) {
    if (finding.line == line) {
      rules.push_back(finding.rule);
    }
  }
  std::sort(rules.begin(), rules.end());
  return rules;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(LintRulesTest, RawMutexFiresOutsideSyncHeader) {
  const std::string bad = std::string("#include <cstdint>\n") +
                          "std" "::mutex m;\n" +
                          "std" "::lock_guard<std" "::mutex> lock(m);\n" +
                          "std" "::condition_variable cv;\n";
  const std::vector<Finding> findings = LintContent("src/cluster/foo.cc", bad);
  EXPECT_EQ(RulesAt(findings, 1), std::vector<std::string>{});
  EXPECT_EQ(RulesAt(findings, 2), std::vector<std::string>{"raw-mutex"});
  EXPECT_EQ(RulesAt(findings, 3), std::vector<std::string>{"raw-mutex"});
  EXPECT_EQ(RulesAt(findings, 4), std::vector<std::string>{"raw-mutex"});
}

TEST(LintRulesTest, RawMutexIncludeDirectiveFires) {
  const std::string bad = std::string("#include <") + "mutex>\n";
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", bad), "raw-mutex"));
  const std::string ok = "#include <atomic>\n";
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", ok), "raw-mutex"));
}

TEST(LintRulesTest, RawMutexExemptInSyncHeaderAndSuppressible) {
  const std::string body = std::string("std" "::mutex mu_;\n");
  EXPECT_FALSE(HasRule(LintContent("src/common/sync.h", body), "raw-mutex"));
  EXPECT_TRUE(HasRule(LintContent("src/common/other.h", body), "raw-mutex"));
  const std::string suppressed =
      std::string("std" "::mutex mu_;  // vlora-lint: allow(raw-mutex)\n");
  EXPECT_FALSE(HasRule(LintContent("src/common/other.h", suppressed), "raw-mutex"));
}

TEST(LintRulesTest, RawMutexInCommentDoesNotFire) {
  const std::string commented = std::string("// prefer vlora::Mutex over ") + "std" "::mutex\n" +
                                "/* std" "::lock_guard is banned */\n";
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", commented), "raw-mutex"));
}

TEST(LintRulesTest, RawAtomicFiresUnderSrc) {
  const std::string bad = std::string("#include <") + "atomic>\n" +
                          "std" "::atomic<bool> stop_{false};\n" +
                          "int plain = 0;\n" +
                          "std" "::atomic_thread_fence(std" "::memory" "_order_acquire);\n";
  const std::vector<Finding> findings = LintContent("src/cluster/foo.cc", bad);
  EXPECT_EQ(RulesAt(findings, 1), std::vector<std::string>{"raw-atomic"});
  EXPECT_EQ(RulesAt(findings, 2), std::vector<std::string>{"raw-atomic"});
  EXPECT_EQ(RulesAt(findings, 3), std::vector<std::string>{});
  EXPECT_EQ(RulesAt(findings, 4), std::vector<std::string>{"raw-atomic"});
}

TEST(LintRulesTest, RawAtomicGoodTwinsStayQuiet) {
  const std::string body = std::string("#include <") + "atomic>\n" +
                           "std" "::atomic<int> value_{0};\n";
  // The wrappers' own header, and every tree outside src/.
  EXPECT_FALSE(HasRule(LintContent("src/common/sync.h", body), "raw-atomic"));
  EXPECT_FALSE(HasRule(LintContent("tests/foo_test.cc", body), "raw-atomic"));
  EXPECT_FALSE(HasRule(LintContent("tools/probe.cc", body), "raw-atomic"));
  const std::string wrapped = std::string("PublishedAtomic<bool> stop_{false};\n") +
                              "// not std" "::atomic: the type fixes the order\n";
  EXPECT_FALSE(HasRule(LintContent("src/cluster/foo.cc", wrapped), "raw-atomic"));
  const std::string suppressed =
      std::string("std" "::atomic<int> value_{0};  // vlora-lint: allow(raw-atomic)\n");
  EXPECT_FALSE(HasRule(LintContent("src/cluster/foo.cc", suppressed), "raw-atomic"));
}

TEST(LintRulesTest, StatusClassWithoutNodiscardFires) {
  const std::string bad = std::string("class ") + "Status {\n public:\n};\n";
  const std::vector<Finding> findings = LintContent("src/common/s.cc", bad);
  EXPECT_EQ(RulesAt(findings, 1), std::vector<std::string>{"status-not-nodiscard"});

  const std::string good =
      std::string("class [[nodiscard]] ") + "Status {\n public:\n};\n";
  EXPECT_FALSE(HasRule(LintContent("src/common/s.cc", good), "status-not-nodiscard"));

  // Forward declarations carry no attribute and are fine.
  const std::string fwd = std::string("class ") + "Status;\n";
  EXPECT_FALSE(HasRule(LintContent("src/common/s.cc", fwd), "status-not-nodiscard"));
}

TEST(LintRulesTest, ResultClassWithoutNodiscardFires) {
  const std::string bad =
      std::string("template <typename T>\nclass ") + "Result {\n};\n";
  const std::vector<Finding> findings = LintContent("src/common/s.cc", bad);
  EXPECT_EQ(RulesAt(findings, 2), std::vector<std::string>{"status-not-nodiscard"});
}

TEST(LintRulesTest, SleepFiresOnlyUnderTests) {
  const std::string body =
      std::string("std::this_thread::sleep_") + "for(std::chrono::milliseconds(10));\n";
  EXPECT_TRUE(HasRule(LintContent("tests/foo_test.cc", body), "sleep-in-test"));
  EXPECT_FALSE(HasRule(LintContent("bench/foo_bench.cc", body), "sleep-in-test"));
  const std::string suppressed =
      std::string("std::this_thread::sleep_") + "for(kPaceUs);  " +
      "// vlora-lint: allow(sleep-in-test)\n";
  EXPECT_FALSE(HasRule(LintContent("tests/foo_test.cc", suppressed), "sleep-in-test"));
}

TEST(LintRulesTest, NakedNewFiresButFactoriesAndPlacementDoNot) {
  const std::string bad = std::string("auto* leak = ") + "new" " Widget();\n";
  EXPECT_EQ(RulesAt(LintContent("src/a.cc", bad), 1), std::vector<std::string>{"naked-new"});

  const std::string factory = "auto owned = std::make_unique<Widget>();\n";
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", factory), "naked-new"));

  const std::string placement = std::string("::") + "new" " (buffer) Widget();\n";
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", placement), "naked-new"));

  const std::string hyphenated = "const char kRule[] = \"naked-" "new\";\n";
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", hyphenated), "naked-new"));
}

TEST(LintRulesTest, ThreadDetachFires) {
  const std::string bad = std::string("worker.") + "detach" "();\n";
  EXPECT_EQ(RulesAt(LintContent("src/a.cc", bad), 1),
            std::vector<std::string>{"thread-detach"});
  const std::string good = "worker.join();\n";
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", good), "thread-detach"));
}

TEST(LintRulesTest, IncludeGuardAcceptsIfndefOrPragmaOnce) {
  const std::string unguarded = "int F();\n";
  const std::vector<Finding> findings = LintContent("src/common/u.h", unguarded);
  EXPECT_EQ(RulesAt(findings, 1), std::vector<std::string>{"missing-include-guard"});

  const std::string ifndef_guarded =
      std::string("// comment first\n#ifndef") + " VLORA_U_H_\n#define VLORA_U_H_\nint F();\n#endif\n";
  EXPECT_FALSE(HasRule(LintContent("src/common/u.h", ifndef_guarded), "missing-include-guard"));

  const std::string pragma_guarded = std::string("#pragma") + " once\nint F();\n";
  EXPECT_FALSE(HasRule(LintContent("src/common/u.h", pragma_guarded), "missing-include-guard"));

  // Non-headers are exempt.
  EXPECT_FALSE(HasRule(LintContent("src/common/u.cc", unguarded), "missing-include-guard"));
}

TEST(LintRulesTest, CleanFileYieldsNoFindings) {
  const std::string clean =
      std::string("#ifndef") + " VLORA_CLEAN_H_\n#define VLORA_CLEAN_H_\n" +
      "#include \"src/common/sync.h\"\n"
      "namespace vlora {\n"
      "class Clean {\n"
      " private:\n"
      "  Mutex mutex_;\n"
      "  int value_ VLORA_GUARDED_BY(mutex_) = 0;\n"
      "};\n"
      "}  // namespace vlora\n"
      "#endif\n";
  EXPECT_TRUE(LintContent("src/common/clean.h", clean).empty());
}

TEST(LintRulesTest, RawSocketFdFiresOutsideNetDirectory) {
  const std::string bad = std::string("void Connect() {\n") +
                          "  int fd = ::soc" "ket(AF_INET, SOCK_STREAM, 0);\n" +
                          "  int peer = acc" "ept4(fd, nullptr, nullptr, 0);\n" +
                          "  int pair[2];\n" +
                          "  soc" "ketpair(AF_UNIX, SOCK_STREAM, 0, pair);\n" +
                          "  ::clo" "se(fd);\n" +
                          "}\n";
  const std::vector<Finding> findings = LintContent("src/cluster/foo.cc", bad);
  EXPECT_EQ(RulesAt(findings, 2), std::vector<std::string>{"raw-socket-fd"});
  EXPECT_EQ(RulesAt(findings, 3), std::vector<std::string>{"raw-socket-fd"});
  EXPECT_EQ(RulesAt(findings, 5), std::vector<std::string>{"raw-socket-fd"});
  EXPECT_EQ(RulesAt(findings, 6), std::vector<std::string>{"raw-socket-fd"});
  // The same text inside src/net/ is the RAII wrapper itself: exempt.
  EXPECT_FALSE(HasRule(LintContent("src/net/fd.cc", bad), "raw-socket-fd"));
}

TEST(LintRulesTest, RawSocketFdIgnoresMembersCommentsAndSuppression) {
  // Member calls, destructor references and identifiers that merely contain
  // the call names are not raw descriptor calls.
  const std::string quiet = std::string("channel.clo" "se();\n") +
                            "stream->clo" "se();\n" +
                            "WebSoc" "ket(url);\n" +
                            "OnClo" "se(handler);\n" +
                            "// ::clo" "se(fd) is banned here\n";
  EXPECT_FALSE(HasRule(LintContent("src/cluster/foo.cc", quiet), "raw-socket-fd"));
  const std::string suppressed =
      std::string("  ::clo" "se(fd);  // vlora-lint: allow(raw-socket-fd)\n");
  EXPECT_FALSE(HasRule(LintContent("src/cluster/foo.cc", suppressed), "raw-socket-fd"));
}

TEST(LintRulesTest, RawSimdIntrinsicFiresOutsideKernelDirectory) {
  const std::string bad = std::string("#include <imm" "intrin.h>\n") +
                          "void F(const float* a, const float* b, float* c) {\n" +
                          "  __m256 av = _mm" "256_loadu_ps(a);\n" +
                          "  __m256 cv = _mm" "256_fmadd_ps(av, _mm" "256_loadu_ps(b),\n" +
                          "                             _mm" "256_setzero_ps());\n" +
                          "  _mm" "256_storeu_ps(c, cv);\n" +
                          "  __m128 low = _mm" "_loadu_ps(a);\n" +
                          "  __m512 wide = _mm" "512_loadu_ps(a);\n" +
                          "}\n";
  const std::vector<Finding> findings = LintContent("src/engine/fast_path.cc", bad);
  EXPECT_EQ(RulesAt(findings, 1), std::vector<std::string>{"raw-simd-intrinsic"});
  EXPECT_EQ(RulesAt(findings, 3), std::vector<std::string>{"raw-simd-intrinsic"});
  EXPECT_EQ(RulesAt(findings, 4), std::vector<std::string>{"raw-simd-intrinsic"});
  EXPECT_EQ(RulesAt(findings, 5), std::vector<std::string>{"raw-simd-intrinsic"});
  EXPECT_EQ(RulesAt(findings, 6), std::vector<std::string>{"raw-simd-intrinsic"});
  EXPECT_EQ(RulesAt(findings, 7), std::vector<std::string>{"raw-simd-intrinsic"});
  EXPECT_EQ(RulesAt(findings, 8), std::vector<std::string>{"raw-simd-intrinsic"});
  // The identical text inside src/kernels/ IS the micro-kernel layer: exempt.
  EXPECT_FALSE(
      HasRule(LintContent("src/kernels/microkernel_avx2.cc", bad), "raw-simd-intrinsic"));
}

TEST(LintRulesTest, RawSimdIntrinsicGoodTwinsStayQuiet) {
  // The portable way to go fast outside src/kernels/: call the dispatched
  // kernels. Identifiers merely containing the prefix and comments are quiet.
  const std::string good = std::string("#include \"src/kernels/gemm.h\"\n") +
                           "void F(const Tensor& a, const Tensor& b, Tensor& c,\n" +
                           "       GemmWorkspace& ws) {\n" +
                           "  GemmTiled(a, b, c, TileConfig{}, ws);\n" +
                           "  int custom_mm" "256_count = 0;\n" +
                           "  // _mm" "256_fmadd_ps lives in src/kernels/ only\n" +
                           "}\n";
  EXPECT_FALSE(HasRule(LintContent("src/engine/fast_path.cc", good), "raw-simd-intrinsic"));
  const std::string suppressed =
      std::string("  __m256 v = _mm" "256_setzero_ps();  ") +
      "// vlora-lint: allow(raw-simd-intrinsic)\n";
  EXPECT_FALSE(
      HasRule(LintContent("src/engine/fast_path.cc", suppressed), "raw-simd-intrinsic"));
}

TEST(LintRulesTest, GetenvOutsideInitFiresInNonInitFunctions) {
  const std::string bad = std::string("#include <cstdlib>\n") +
                          "const char* ServeOne() {\n" +
                          "  return std::get" "env(\"VLORA_MODE\");\n" +
                          "}\n" +
                          "void HandleRequest() {\n" +
                          "  const char* raw = ::get" "env(\"VLORA_TUNING\");\n" +
                          "  (void)raw;\n" +
                          "}\n";
  const std::vector<Finding> findings = LintContent("src/engine/serve.cc", bad);
  EXPECT_EQ(RulesAt(findings, 3), std::vector<std::string>{"get" "env-outside-init"});
  EXPECT_EQ(RulesAt(findings, 6), std::vector<std::string>{"get" "env-outside-init"});
  // The identical text outside src/ (tools, tests) is exempt.
  EXPECT_FALSE(HasRule(LintContent("tools/bench_driver.cc", bad), "get" "env-outside-init"));
}

TEST(LintRulesTest, GetenvGoodTwinsStayQuiet) {
  // Init-named functions are the sanctioned place to read the environment.
  const std::string good = std::string("#include <cstdlib>\n") +
                           "KernelVariant ResolveFromEnv() {\n" +
                           "  return Parse(std::get" "env(\"VLORA_KERNEL_VARIANT\"));\n" +
                           "}\n" +
                           "void InitRuntime() {\n" +
                           "  cache = ::get" "env(\"VLORA_CACHE_DIR\");\n" +
                           "}\n" +
                           "int main(int argc, char** argv) {\n" +
                           "  const char* seed = std::get" "env(\"VLORA_SEED\");\n" +
                           "  (void)seed;\n" +
                           "  return 0;\n" +
                           "}\n" +
                           "void Hot() {\n" +
                           "  // get" "env(\"COMMENTED_OUT\") never fires\n" +
                           "  int environment = 0;  // identifier containing the word\n" +
                           "  (void)environment;\n" +
                           "}\n";
  EXPECT_FALSE(HasRule(LintContent("src/engine/serve.cc", good), "get" "env-outside-init"));
  const std::string suppressed =
      std::string("std::string Probe() {\n") +
      "  return std::get" "env(\"X\");  // vlora-lint: allow(get" "env-outside-init) one-shot\n" +
      "}\n";
  EXPECT_FALSE(HasRule(LintContent("src/engine/serve.cc", suppressed),
                       "get" "env-outside-init"));
}

TEST(LintRulesTest, VolatileThreadingFiresUnderSrc) {
  const std::string bad = std::string("class Worker {\n") +
                          "  vola" "tile bool stop_ = false;\n" +
                          "};\n" +
                          "vola" "tile int g_ticks = 0;\n" +
                          "int Read(vola" "tile int* p) { return *p; }\n";
  const std::vector<Finding> findings = LintContent("src/cluster/foo.cc", bad);
  EXPECT_EQ(RulesAt(findings, 2), std::vector<std::string>{"vola" "tile-threading"});
  EXPECT_EQ(RulesAt(findings, 4), std::vector<std::string>{"vola" "tile-threading"});
  EXPECT_EQ(RulesAt(findings, 5), std::vector<std::string>{"vola" "tile-threading"});
  // The identical text outside src/ (tools, tests, bench) is exempt.
  EXPECT_FALSE(HasRule(LintContent("tools/probe.cc", bad), "vola" "tile-threading"));
}

TEST(LintRulesTest, VolatileThreadingGoodTwinsStayQuiet) {
  // The sanctioned idiom passes every rule, not just this one.
  const std::string good = std::string("#include \"src/common/sync.h\"\n") +
                           "RelaxedAtomic<bool> stop_{false};\n" +
                           "// vola" "tile is banned; this comment does not fire\n" +
                           "int vola" "tileness = 0;  // longer identifier, no match\n" +
                           "(void)vola" "tileness;\n";
  EXPECT_TRUE(LintContent("src/cluster/foo.cc", good).empty());
  const std::string suppressed =
      std::string("vola" "tile uint32_t* mmio = MapDevice();  "
                  "// vlora-lint: allow(vola" "tile-threading) device register\n");
  EXPECT_FALSE(HasRule(LintContent("src/cluster/foo.cc", suppressed),
                       "vola" "tile-threading"));
}

// Scopes are decided on the path from the repository root, so a checkout
// under a directory that happens to be named src/ lints like the repository.
TEST(LintRulesTest, ScopesFollowTheRepositoryRoot) {
  const std::string checkout = "/home/dev/src/checkout/";
  EXPECT_TRUE(InRepoDir(checkout + "tests/foo_test.cc", "tests/"));
  EXPECT_FALSE(InRepoDir(checkout + "tests/foo_test.cc", "src/"));
  EXPECT_TRUE(InRepoDir(checkout + "src/net/fd.h", "src/net/"));
  EXPECT_FALSE(InRepoDir(checkout + "tools/vlora_lint.cc", "src/"));
  EXPECT_TRUE(InRepoDir("src/kernels/gemm.cc", "src/kernels/"));
  EXPECT_FALSE(InRepoDir("sync.h", "src/"));
  const std::string body = std::string("#include <") + "atomic>\n" +
                           "std" "::atomic<int> value_{0};\n";
  EXPECT_TRUE(LintContent(checkout + "tests/foo_test.cc", body).empty());
  EXPECT_TRUE(HasRule(LintContent(checkout + "src/cluster/foo.cc", body), "raw-atomic"));
}

TEST(LintRulesTest, RuleNamesAreStable) {
  const std::vector<std::string> names = RuleNames();
  EXPECT_EQ(names.size(), 11u);
  EXPECT_NE(std::find(names.begin(), names.end(), "vola" "tile-threading"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "raw-mutex"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "raw-atomic"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "missing-include-guard"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "raw-socket-fd"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "raw-simd-intrinsic"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "get" "env-outside-init"), names.end());
}

TEST(LintRulesTest, FormatFindingIsFileLineRuleMessage) {
  const Finding finding{"raw-mutex", "src/a.cc", 7, "msg"};
  EXPECT_EQ(FormatFinding(finding), "src/a.cc:7: [raw-mutex] msg");
}

}  // namespace
}  // namespace lint
}  // namespace vlora
