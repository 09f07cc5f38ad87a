// Runtime kernel dispatch: VLORA_KERNEL_VARIANT forcing, function-pointer
// table consistency, serial-vs-parallel bitwise identity per variant, and an
// engine generation that must not tell AVX2 and AVX-512 apart.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/rng.h"
#include "src/common/compute_group.h"
#include "src/engine/engine.h"
#include "src/kernels/gemm.h"
#include "src/kernels/kernel_variant.h"
#include "src/kernels/microkernel.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace {

// Forces VLORA_KERNEL_VARIANT for the current scope and restores the previous
// value (or unsets) on destruction, refreshing the cached dispatch both ways.
class ScopedKernelVariantEnv {
 public:
  explicit ScopedKernelVariantEnv(const char* value) {
    const char* old = std::getenv("VLORA_KERNEL_VARIANT");
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    if (value == nullptr) {
      unsetenv("VLORA_KERNEL_VARIANT");
    } else {
      setenv("VLORA_KERNEL_VARIANT", value, /*overwrite=*/1);
    }
    RefreshKernelVariantFromEnv();
  }

  ~ScopedKernelVariantEnv() {
    if (had_old_) {
      setenv("VLORA_KERNEL_VARIANT", old_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("VLORA_KERNEL_VARIANT");
    }
    RefreshKernelVariantFromEnv();
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(KernelVariantTest, ParseAcceptsExactNamesOnly) {
  KernelVariant variant;
  EXPECT_TRUE(ParseKernelVariant("scalar", &variant));
  EXPECT_EQ(variant, KernelVariant::kScalar);
  EXPECT_TRUE(ParseKernelVariant("avx2", &variant));
  EXPECT_EQ(variant, KernelVariant::kAvx2);
  EXPECT_FALSE(ParseKernelVariant("auto", &variant));
  // avx512 has no spelling: auto picks it wherever the host can run it.
  EXPECT_FALSE(ParseKernelVariant("avx512", &variant));
  EXPECT_FALSE(ParseKernelVariant("AVX2", &variant));
  EXPECT_FALSE(ParseKernelVariant("avx512f", &variant));
  EXPECT_FALSE(ParseKernelVariant("", &variant));
  EXPECT_FALSE(ParseKernelVariant("turbo", &variant));
}

TEST(KernelVariantTest, AvailabilityIsConsistent) {
  // Scalar is always available, then each SIMD variant the host runs, in
  // order. A SIMD variant is available only with its table compiled in, and
  // AVX-512 only on top of AVX2, whose tiles its table shares.
  std::vector<KernelVariant> expected{KernelVariant::kScalar};
  if (Avx2Available()) {
    EXPECT_FALSE(Avx2MicroKernelTable().empty());
    expected.push_back(KernelVariant::kAvx2);
  }
  if (Avx512Available()) {
    EXPECT_TRUE(Avx2Available());
    EXPECT_FALSE(Avx512MicroKernelTable().empty());
    expected.push_back(KernelVariant::kAvx512);
  }
  EXPECT_EQ(AvailableKernelVariants(), expected);
  // Auto picks avx512, then avx2, then scalar: the last available one.
  EXPECT_EQ(DetectBestKernelVariant(), expected.back());
}

// Forcing each variant through the env override must be reflected by the
// active variant AND by the function-pointer table actually dispatched to.
TEST(KernelVariantTest, EnvOverrideForcesEachVariant) {
  {
    ScopedKernelVariantEnv env("scalar");
    EXPECT_EQ(ActiveKernelVariant(), KernelVariant::kScalar);
    for (const MicroKernelEntry& entry : MicroKernelTable(ActiveKernelVariant())) {
      EXPECT_EQ(entry.variant, KernelVariant::kScalar);
    }
  }
  {
    ScopedKernelVariantEnv env("avx2");
    if (Avx2Available()) {
      EXPECT_EQ(ActiveKernelVariant(), KernelVariant::kAvx2);
      for (const MicroKernelEntry& entry : MicroKernelTable(ActiveKernelVariant())) {
        EXPECT_EQ(entry.variant, KernelVariant::kAvx2);
        EXPECT_NE(entry.full, nullptr);
        EXPECT_NE(entry.edge, nullptr);
      }
    } else {
      // Graceful degradation on hosts without AVX2: warn and serve scalar.
      EXPECT_EQ(ActiveKernelVariant(), KernelVariant::kScalar);
    }
  }
}

TEST(KernelVariantTest, UnparsableEnvFallsBackToAuto) {
  ScopedKernelVariantEnv env("turbo-encabulator");
  EXPECT_EQ(ActiveKernelVariant(), DetectBestKernelVariant());
}

TEST(KernelVariantTest, EmptyAndAutoSelectBest) {
  {
    ScopedKernelVariantEnv env("auto");
    EXPECT_EQ(ActiveKernelVariant(), DetectBestKernelVariant());
  }
  {
    ScopedKernelVariantEnv env(nullptr);
    EXPECT_EQ(ActiveKernelVariant(), DetectBestKernelVariant());
  }
}

// The implicit-dispatch GemmTiled overload must produce bitwise-identical
// output to the explicit-variant overload for whatever variant is forced.
TEST(KernelDispatchTest, ImplicitOverloadHonoursForcedVariant) {
  const int64_t m = 37;
  const int64_t n = 53;
  const int64_t k = 71;
  Rng rng(0xD15Cull);
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  for (KernelVariant variant : AvailableKernelVariants()) {
    ScopedKernelVariantEnv env(KernelVariantName(variant));
    Tensor c_implicit = Tensor::Zeros(Shape(m, n));
    Tensor c_explicit = Tensor::Zeros(Shape(m, n));
    GemmWorkspace workspace;
    GemmTiled(a.data(), b.data(), c_implicit.data(), m, n, k, TileConfig{}, workspace);
    GemmTiled(a.data(), b.data(), c_explicit.data(), m, n, k, TileConfig{}, workspace, variant);
    EXPECT_EQ(0, std::memcmp(c_implicit.data(), c_explicit.data(),
                             static_cast<size_t>(m * n) * sizeof(float)))
        << KernelVariantName(variant);
  }
}

// GemmTiledParallel must be bitwise identical to serial GemmTiled for EVERY
// variant: disjoint C tiles and identical per-tile arithmetic order make the
// parallel decomposition exact, not merely close.
TEST(KernelDispatchTest, ParallelIsBitwiseIdenticalToSerialForEveryVariant) {
  ComputeGroup group(4);
  const struct {
    int64_t m;
    int64_t n;
    int64_t k;
  } shapes[] = {{128, 96, 64}, {33, 49, 97}, {1, 64, 128}, {200, 16, 512}};
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (const auto& shape : shapes) {
      Rng rng(0xBEEFull ^ static_cast<uint64_t>(shape.m));
      Tensor a = Tensor::Random(Shape(shape.m, shape.k), rng, 1.0f);
      Tensor b = Tensor::Random(Shape(shape.k, shape.n), rng, 1.0f);
      Tensor c_serial = Tensor::Zeros(Shape(shape.m, shape.n));
      Tensor c_parallel = Tensor::Zeros(Shape(shape.m, shape.n));
      GemmWorkspace ws_serial;
      GemmWorkspace ws_parallel;
      const TileConfig config{32, 32, 64, 8, 8};  // several block tiles in m
      GemmTiled(a.data(), b.data(), c_serial.data(), shape.m, shape.n, shape.k, config,
                ws_serial, variant);
      GemmTiledParallel(a.data(), b.data(), c_parallel.data(), shape.m, shape.n, shape.k, config,
                        ws_parallel, group, variant);
      EXPECT_EQ(0, std::memcmp(c_serial.data(), c_parallel.data(),
                               static_cast<size_t>(shape.m * shape.n) * sizeof(float)))
          << KernelVariantName(variant) << " " << shape.m << "x" << shape.n << "x" << shape.k;
    }
  }
}

// FindMicroKernel degrades to scalar rather than failing when a variant lacks
// an instantiation (it never does today, but the fallback is the contract).
TEST(KernelDispatchTest, LookupFallsBackToScalar) {
  EXPECT_EQ(FindMicroKernel(KernelVariant::kScalar, 5, 5), nullptr);
  const MicroKernelEntry* entry = FindMicroKernel(KernelVariant::kAvx2, 8, 8);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->variant, MicroKernelTable(KernelVariant::kAvx2).empty()
                                ? KernelVariant::kScalar
                                : KernelVariant::kAvx2);
  const MicroKernelEntry* wide = FindMicroKernel(KernelVariant::kAvx512, 8, 16);
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->variant, MicroKernelTable(KernelVariant::kAvx512).empty()
                               ? KernelVariant::kScalar
                               : KernelVariant::kAvx512);
  EXPECT_TRUE(HasMicroKernel(8, 8));
  EXPECT_FALSE(HasMicroKernel(KernelVariant::kAvx2, 5, 5));
  EXPECT_FALSE(HasMicroKernel(KernelVariant::kAvx512, 5, 5));
}

// The AVX-512 variant serves AVX2's outputs bit for bit end to end: a
// SmallConfig generation with an unmerged adapter (base and LoRA GEMMs,
// paged attention, the LM head) gives the same tokens and final hidden row
// under either, so servebench serves the same outputs on both.
TEST(KernelDispatchTest, Avx512GenerationEqualsAvx2) {
  if (!Avx512Available()) {
    GTEST_SKIP() << "host has no AVX-512 kernels";
  }
  const ModelConfig config = SmallConfig();
  Rng rng(0xA512ull);
  const LoraAdapter adapter =
      LoraAdapter::Random("a", config.num_layers, config.d_model, 8, rng);
  EngineRequest request;
  request.id = 1;
  for (int i = 0; i < 40; ++i) {
    request.prompt_tokens.push_back(static_cast<int32_t>(rng.NextInt(2, config.vocab_size - 1)));
  }
  request.max_new_tokens = 8;
  request.eos_token = -1;
  request.capture_final_hidden = true;
  auto generate = [&](const char* variant, KernelVariant expected) {
    ScopedKernelVariantEnv env(variant);
    EXPECT_EQ(ActiveKernelVariant(), expected);
    InferenceEngine engine(config);
    request.adapter_id = engine.RegisterAdapter(&adapter);
    return engine.RunToCompletion(request);
  };
  const EngineResult avx2 = generate("avx2", KernelVariant::kAvx2);
  const EngineResult avx512 = generate("auto", KernelVariant::kAvx512);
  ASSERT_EQ(avx2.output_tokens.size(), 8u);
  EXPECT_EQ(avx2.output_tokens, avx512.output_tokens);
  ASSERT_EQ(avx2.final_hidden.size(), static_cast<size_t>(config.d_model));
  ASSERT_EQ(avx512.final_hidden.size(), avx2.final_hidden.size());
  EXPECT_EQ(0, std::memcmp(avx2.final_hidden.data(), avx512.final_hidden.data(),
                           avx2.final_hidden.size() * sizeof(float)));
}

}  // namespace
}  // namespace vlora
