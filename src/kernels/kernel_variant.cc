#include "src/kernels/kernel_variant.h"

#include <cstdlib>

#include "src/common/logging.h"
#include "src/common/sync.h"
#include "src/kernels/microkernel.h"

namespace vlora {

namespace {

// libgcc answers from CPUID and XCR0, so a yes also means the OS saves the
// vector state (for AVX-512F, the zmm and opmask registers).
#if defined(__x86_64__) || defined(__i386__)
bool CpuSupportsAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool CpuSupportsAvx512() { return __builtin_cpu_supports("avx512f"); }
#else
bool CpuSupportsAvx2Fma() { return false; }
bool CpuSupportsAvx512() { return false; }
#endif

// -1 = not yet resolved; otherwise a KernelVariant value.
// RefreshKernelVariantFromEnv publishes it and ActiveKernelVariant loads it,
// so readers see the resolved variant, not a torn in-progress pick. constinit:
// another TU's static initializer may call ActiveKernelVariant before this
// TU's initializers run.
constinit PublishedAtomic<int> g_active{-1};

KernelVariant ResolveFromEnv() {
  const char* env = std::getenv("VLORA_KERNEL_VARIANT");
  if (env == nullptr || *env == '\0' || std::string(env) == "auto") {
    return DetectBestKernelVariant();
  }
  KernelVariant requested;
  if (!ParseKernelVariant(env, &requested)) {
    VLORA_LOG(Warning) << "VLORA_KERNEL_VARIANT=" << env
                       << " is not a variant (scalar, avx2, auto); using auto";
    return DetectBestKernelVariant();
  }
  if (requested == KernelVariant::kAvx2 && !Avx2Available()) {
    VLORA_LOG(Warning) << "VLORA_KERNEL_VARIANT=avx2 but the host cannot run it "
                       << "(cpu avx2+fma: " << (CpuSupportsAvx2Fma() ? "yes" : "no")
                       << ", compiled table: " << (Avx2MicroKernelTable().empty() ? "no" : "yes")
                       << "); falling back to scalar";
    return KernelVariant::kScalar;
  }
  return requested;
}

}  // namespace

const char* KernelVariantName(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kAvx2:
      return "avx2";
    case KernelVariant::kAvx512:
      return "avx512";
  }
  return "?";
}

bool ParseKernelVariant(const std::string& text, KernelVariant* out) {
  if (text == "scalar") {
    *out = KernelVariant::kScalar;
    return true;
  }
  if (text == "avx2") {
    *out = KernelVariant::kAvx2;
    return true;
  }
  return false;
}

bool Avx2Available() { return CpuSupportsAvx2Fma() && !Avx2MicroKernelTable().empty(); }

bool Avx512Available() {
  return Avx2Available() && CpuSupportsAvx512() && !Avx512MicroKernelTable().empty();
}

KernelVariant DetectBestKernelVariant() {
  if (Avx512Available()) {
    return KernelVariant::kAvx512;
  }
  return Avx2Available() ? KernelVariant::kAvx2 : KernelVariant::kScalar;
}

namespace {

// The environment is read exactly once, at static-init time, so the dispatch
// fast path below never touches getenv or builds strings. Tests that mutate
// the environment call RefreshKernelVariantFromEnv explicitly.
[[maybe_unused]] const bool g_variant_resolved = [] {
  RefreshKernelVariantFromEnv();
  return true;
}();

}  // namespace

KernelVariant ActiveKernelVariant() {
  const int cached = g_active.Load();
  if (cached >= 0) {
    return static_cast<KernelVariant>(cached);
  }
  // Only reachable from another TU's static initializer running before this
  // TU's (unsequenced static-init order): fall back to pure CPU detection
  // without consulting the environment.
  return DetectBestKernelVariant();
}

void RefreshKernelVariantFromEnv() {
  g_active.Publish(static_cast<int>(ResolveFromEnv()));
}

std::vector<KernelVariant> AvailableKernelVariants() {
  std::vector<KernelVariant> variants{KernelVariant::kScalar};
  if (Avx2Available()) {
    variants.push_back(KernelVariant::kAvx2);
  }
  if (Avx512Available()) {
    variants.push_back(KernelVariant::kAvx512);
  }
  return variants;
}

}  // namespace vlora
