// Kernel variant dispatch: which ISA the GEMM micro-kernels run on.
//
// The paper pre-compiles one CUDA kernel per tiling configuration and picks at
// runtime (§4.3.2). On the CPU the same idea has a second axis: the register
// micro-kernel itself comes in ISA variants (portable scalar, AVX2+FMA,
// AVX-512), and the best tiling configuration depends on the variant — an
// 8-wide FMA kernel saturates memory long before the scalar one does. Every
// variant is compiled ahead of time; selection is a runtime table lookup,
// never an ifdef, so one binary serves every host and tests can force any.
//
// Selection order: the VLORA_KERNEL_VARIANT environment variable ("scalar",
// "avx2", "auto"/unset) wins; "auto" probes the CPU and picks avx512, then
// avx2, then scalar. avx512 has no spelling of its own: auto already picks it
// wherever it runs. Requesting avx2 on a host without it degrades to scalar
// with a warning — dispatch never fails.

#ifndef VLORA_SRC_KERNELS_KERNEL_VARIANT_H_
#define VLORA_SRC_KERNELS_KERNEL_VARIANT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vlora {

// ISA of the register micro-kernel.
enum class KernelVariant : uint8_t {
  kScalar = 0,  // portable C++, compiled at the baseline ISA
  kAvx2 = 1,    // 8-wide FMA, compiled per-file with -mavx2 -mfma
  kAvx512 = 2,  // 16-wide FMA tiles, compiled per-file with -mavx512f; bitwise kAvx2
};

inline constexpr int kNumKernelVariants = 3;

const char* KernelVariantName(KernelVariant variant);

// Parses "scalar" / "avx2" (case-sensitive, the documented spellings).
// Returns false on anything else, including "auto" — auto is not a variant.
bool ParseKernelVariant(const std::string& text, KernelVariant* out);

// True if this build carries the AVX2 micro-kernel table AND the running CPU
// supports AVX2+FMA. Both conditions: the table is per-file compiled with
// -mavx2, so it exists on non-AVX2 hosts too — it just must never be run.
bool Avx2Available();

// True if Avx2Available() (the table shares AVX2's narrower tiles), this
// build carries the AVX-512 table AND the running CPU supports AVX-512F.
bool Avx512Available();

// Best variant the host can run: kAvx512, else kAvx2, else kScalar.
KernelVariant DetectBestKernelVariant();

// The variant every implicit-dispatch entry point uses. Resolved once from
// VLORA_KERNEL_VARIANT + the CPU probe and cached; RefreshKernelVariantFromEnv
// re-resolves (tests force variants by setenv + refresh).
KernelVariant ActiveKernelVariant();
void RefreshKernelVariantFromEnv();

// Every variant the host can actually execute, scalar first.
std::vector<KernelVariant> AvailableKernelVariants();

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_KERNEL_VARIANT_H_
