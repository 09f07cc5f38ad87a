#include "src/kernels/gemm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "src/kernels/microkernel.h"

namespace vlora {

namespace {

// Computes a single mr x nr tile of C.
//
// a_panel: kc values per micro-row group, laid out [p * MR + i]
// b:       NR values per reduction step, laid out [p * ldb + j]
// The accumulator is an MR x NR array: the baseline ISA's 16 xmm registers
// hold 64 floats, so the compiler keeps what fits of it in registers and the
// rest on the stack (a 16 x 16 block needs 256 floats). GCC/Clang vectorise
// the inner NR loop.
template <int MR, int NR>
void MicroKernelFull(int64_t kc, const float* a_panel, const float* b, int64_t ldb, float* c,
                     int64_t ldc) {
  float acc[MR][NR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = a_panel + p * MR;
    const float* b_row = b + p * ldb;
    for (int i = 0; i < MR; ++i) {
      const float ai = a[i];
      for (int j = 0; j < NR; ++j) {
        acc[i][j] += ai * b_row[j];
      }
    }
  }
  for (int i = 0; i < MR; ++i) {
    float* c_row = c + i * ldc;
    for (int j = 0; j < NR; ++j) {
      c_row[j] += acc[i][j];
    }
  }
}

// Edge variant: writes only the valid m_eff x n_eff corner.
template <int MR, int NR>
void MicroKernelEdge(int64_t kc, const float* a_panel, const float* b, int64_t ldb, float* c,
                     int64_t ldc, int m_eff, int n_eff) {
  float acc[MR][NR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = a_panel + p * MR;
    const float* b_row = b + p * ldb;
    for (int i = 0; i < MR; ++i) {
      const float ai = a[i];
      for (int j = 0; j < NR; ++j) {
        acc[i][j] += ai * b_row[j];
      }
    }
  }
  for (int i = 0; i < m_eff; ++i) {
    float* c_row = c + i * ldc;
    for (int j = 0; j < n_eff; ++j) {
      c_row[j] += acc[i][j];
    }
  }
}

// The pre-compiled scalar kernel set — the CPU analog of the executable CUDA
// kernels ATMM compiles offline for each tiling configuration (§4.3.2). The
// SIMD tables (microkernel_avx2.cc, microkernel_avx512.cc) mirror this
// (mr, nr) set exactly.
constexpr std::array<MicroKernelEntry, 8> kScalarTable = {{
    {4, 4, KernelVariant::kScalar, MicroKernelFull<4, 4>, MicroKernelEdge<4, 4>},
    {4, 8, KernelVariant::kScalar, MicroKernelFull<4, 8>, MicroKernelEdge<4, 8>},
    {4, 16, KernelVariant::kScalar, MicroKernelFull<4, 16>, MicroKernelEdge<4, 16>},
    {8, 4, KernelVariant::kScalar, MicroKernelFull<8, 4>, MicroKernelEdge<8, 4>},
    {8, 8, KernelVariant::kScalar, MicroKernelFull<8, 8>, MicroKernelEdge<8, 8>},
    {8, 16, KernelVariant::kScalar, MicroKernelFull<8, 16>, MicroKernelEdge<8, 16>},
    {16, 8, KernelVariant::kScalar, MicroKernelFull<16, 8>, MicroKernelEdge<16, 8>},
    {16, 16, KernelVariant::kScalar, MicroKernelFull<16, 16>, MicroKernelEdge<16, 16>},
}};

}  // namespace

std::span<const MicroKernelEntry> MicroKernelTable(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kScalar:
      return kScalarTable;
    case KernelVariant::kAvx2:
      return Avx2MicroKernelTable();
    case KernelVariant::kAvx512:
      return Avx512MicroKernelTable();
  }
  return kScalarTable;
}

const MicroKernelEntry* FindMicroKernel(KernelVariant variant, int mr, int nr) {
  for (const auto& entry : MicroKernelTable(variant)) {
    if (entry.mr == mr && entry.nr == nr) {
      return &entry;
    }
  }
  if (variant != KernelVariant::kScalar) {
    return FindMicroKernel(KernelVariant::kScalar, mr, nr);
  }
  return nullptr;
}

std::vector<std::pair<int, int>> MicroKernelShapes(KernelVariant variant) {
  std::vector<std::pair<int, int>> shapes;
  for (const auto& entry : MicroKernelTable(variant)) {
    shapes.emplace_back(entry.mr, entry.nr);
  }
  return shapes;
}

void PackAPanelsScalar(const float* a, int64_t lda, int64_t mc_eff, int64_t kc_eff, int mr,
                       float* packed) {
  for (int64_t ir = 0; ir < mc_eff; ir += mr) {
    const int rows = static_cast<int>(std::min<int64_t>(mr, mc_eff - ir));
    for (int64_t p = 0; p < kc_eff; ++p) {
      float* dst = packed + (ir / mr) * (kc_eff * mr) + p * mr;
      for (int i = 0; i < rows; ++i) {
        dst[i] = a[(ir + i) * lda + p];
      }
      for (int i = rows; i < mr; ++i) {
        dst[i] = 0.0f;
      }
    }
  }
}

namespace {

// Packs a kc_eff x nc_eff block of B (row-major, stride ldb) into micro-col
// panels: layout [jr][p][j] with j < nr, zero-padded to full nr.
void PackBPanels(const float* b, int64_t ldb, int64_t kc_eff, int64_t nc_eff, int nr,
                 float* packed) {
  for (int64_t jr = 0; jr < nc_eff; jr += nr) {
    const int cols = static_cast<int>(std::min<int64_t>(nr, nc_eff - jr));
    for (int64_t p = 0; p < kc_eff; ++p) {
      float* dst = packed + (jr / nr) * (kc_eff * nr) + p * nr;
      const float* src = b + p * ldb + jr;
      for (int j = 0; j < cols; ++j) {
        dst[j] = src[j];
      }
      for (int j = cols; j < nr; ++j) {
        dst[j] = 0.0f;
      }
    }
  }
}

// The SIMD variants pack A through vector transposes, the scalar one with a
// gather; both write the same bytes.
void PackAPanels(const MicroKernelEntry& kernel, const float* a, int64_t lda, int64_t mc_eff,
                 int64_t kc_eff, float* packed) {
  if (kernel.variant == KernelVariant::kScalar) {
    PackAPanelsScalar(a, lda, mc_eff, kc_eff, kernel.mr, packed);
  } else {
    PackAPanelsAvx2(a, lda, mc_eff, kc_eff, kernel.mr, packed);
  }
}

// Sweeps `kernel` over an mc_eff x nc_eff block of C (row stride ldc) from A
// packed by PackAPanels* and kc_eff rows of B. B's column panel jr starts at
// b + jr * panel_step and is read at stride ldb: packed panels (PackBPanels)
// have panel_step = kc_eff and ldb = nr, B read in place has panel_step = 1
// and ldb = n.
void RunMicroKernels(const MicroKernelEntry& kernel, const float* pack_a, int64_t mc_eff,
                     const float* b, int64_t panel_step, int64_t ldb, int64_t nc_eff,
                     int64_t kc_eff, float* c, int64_t ldc) {
  for (int64_t jr = 0; jr < nc_eff; jr += kernel.nr) {
    const int n_eff = static_cast<int>(std::min<int64_t>(kernel.nr, nc_eff - jr));
    const float* b_panel = b + jr * panel_step;
    for (int64_t ir = 0; ir < mc_eff; ir += kernel.mr) {
      const int m_eff = static_cast<int>(std::min<int64_t>(kernel.mr, mc_eff - ir));
      const float* a_panel = pack_a + ir * kc_eff;
      float* c_tile = c + ir * ldc + jr;
      if (m_eff == kernel.mr && n_eff == kernel.nr) {
        kernel.full(kc_eff, a_panel, b_panel, ldb, c_tile, ldc);
      } else {
        kernel.edge(kc_eff, a_panel, b_panel, ldb, c_tile, ldc, m_eff, n_eff);
      }
    }
  }
}

}  // namespace

float* GemmWorkspace::Ensure(int64_t floats) {
  if (static_cast<int64_t>(buffer_.size()) < floats) {
    buffer_.resize(static_cast<size_t>(floats));  // vlora-lint: allow(hot-path-alloc) high-water mark; steady-state calls never grow
  }
  return buffer_.data();
}

bool HasMicroKernel(int mr, int nr) {
  return FindMicroKernel(KernelVariant::kScalar, mr, nr) != nullptr;
}

bool HasMicroKernel(KernelVariant variant, int mr, int nr) {
  for (const auto& entry : MicroKernelTable(variant)) {
    if (entry.mr == mr && entry.nr == nr) {
      return true;
    }
  }
  return false;
}

bool ReadsBInPlace(int64_t m, int mr, int64_t n, int nr) {
  return n % nr == 0 && (m <= mr || n <= kInPlaceMaxCols);
}

void GemmTiled(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
               const TileConfig& config, GemmWorkspace& workspace, KernelVariant variant) {
  VLORA_CHECK(config.Valid());
  const MicroKernelEntry* kernel = FindMicroKernel(variant, config.mr, config.nr);
  VLORA_CHECK(kernel != nullptr);

  const int64_t mc = config.mc;
  const int64_t nc = config.nc;
  const int64_t kc = config.kc;
  const bool in_place = ReadsBInPlace(m, config.mr, n, config.nr);

  float* pack_a = workspace.Ensure(mc * kc + kc * nc);
  float* pack_b = pack_a + mc * kc;

  for (int64_t jc = 0; jc < n; jc += nc) {
    const int64_t nc_eff = std::min(nc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kc) {
      const int64_t kc_eff = std::min(kc, k - pc);
      const float* b_block = b + pc * n + jc;
      if (!in_place) {
        PackBPanels(b_block, n, kc_eff, nc_eff, config.nr, pack_b);
      }
      for (int64_t ic = 0; ic < m; ic += mc) {
        const int64_t mc_eff = std::min(mc, m - ic);
        PackAPanels(*kernel, a + ic * k + pc, k, mc_eff, kc_eff, pack_a);
        RunMicroKernels(*kernel, pack_a, mc_eff, in_place ? b_block : pack_b,
                        in_place ? 1 : kc_eff, in_place ? n : config.nr, nc_eff, kc_eff,
                        c + ic * n + jc, n);
      }
    }
  }
}

void GemmTiled(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
               const TileConfig& config, GemmWorkspace& workspace) {
  GemmTiled(a, b, c, m, n, k, config, workspace, ActiveKernelVariant());
}

void GemmTiled(const Tensor& a, const Tensor& b, Tensor& c, const TileConfig& config,
               GemmWorkspace& workspace) {
  VLORA_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 && c.shape().rank() == 2);
  VLORA_CHECK(a.shape().dim(1) == b.shape().dim(0));
  VLORA_CHECK(c.shape().dim(0) == a.shape().dim(0));
  VLORA_CHECK(c.shape().dim(1) == b.shape().dim(1));
  GemmTiled(a.data(), b.data(), c.data(), a.shape().dim(0), b.shape().dim(1), a.shape().dim(1),
            config, workspace);
}

void GemmTiledParallel(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
                       const TileConfig& config, GemmWorkspace& workspace, ComputeGroup& group,
                       KernelVariant variant) {
  VLORA_CHECK(config.Valid());
  const MicroKernelEntry* kernel = FindMicroKernel(variant, config.mr, config.nr);
  VLORA_CHECK(kernel != nullptr);

  const int64_t mc = config.mc;
  const int64_t nc = config.nc;
  const int64_t kc = config.kc;
  const bool in_place = ReadsBInPlace(m, config.mr, n, config.nr);

  const int64_t num_ic_blocks = (m + mc - 1) / mc;
  // One private packed-A panel per block tile plus the shared packed-B panel.
  float* pack_a_all = workspace.Ensure(num_ic_blocks * mc * kc + kc * nc);
  float* pack_b = pack_a_all + num_ic_blocks * mc * kc;

  for (int64_t jc = 0; jc < n; jc += nc) {
    const int64_t nc_eff = std::min(nc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kc) {
      const int64_t kc_eff = std::min(kc, k - pc);
      const float* b_block = b + pc * n + jc;
      if (!in_place) {
        PackBPanels(b_block, n, kc_eff, nc_eff, config.nr, pack_b);
      }
      group.Run(num_ic_blocks, group.size(), [&](int64_t block, int) {
        const int64_t ic = block * mc;
        const int64_t mc_eff = std::min(mc, m - ic);
        float* pack_a = pack_a_all + block * mc * kc;
        PackAPanels(*kernel, a + ic * k + pc, k, mc_eff, kc_eff, pack_a);
        RunMicroKernels(*kernel, pack_a, mc_eff, in_place ? b_block : pack_b,
                        in_place ? 1 : kc_eff, in_place ? n : config.nr, nc_eff, kc_eff,
                        c + ic * n + jc, n);
      });
    }
  }
}

void GemmTiledParallel(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
                       const TileConfig& config, GemmWorkspace& workspace, ComputeGroup& group) {
  GemmTiledParallel(a, b, c, m, n, k, config, workspace, group, ActiveKernelVariant());
}

void GemmNaive(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      const float* b_row = b + p * n;
      float* c_row = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += aip * b_row[j];
      }
    }
  }
}

}  // namespace vlora
