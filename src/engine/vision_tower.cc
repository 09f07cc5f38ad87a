#include "src/engine/vision_tower.h"

#include <cmath>
#include <cstring>

#include "src/kernels/transformer_ops.h"

namespace vlora {

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

Tensor SyntheticImage(const VisionTowerConfig& config, int64_t image_id) {
  const int h = config.image_size;
  const int w = config.image_size;
  const int c = config.channels;
  Tensor image(Shape(h, static_cast<int64_t>(w) * c));
  // Pattern parameters derived from the id: two oriented sinusoids plus a
  // diagonal gradient; channels phase-shifted.
  const uint64_t hash = Mix64(static_cast<uint64_t>(image_id) + 0x5151);
  const double fx = 0.2 + 0.8 * static_cast<double>(hash & 0xFF) / 255.0;
  const double fy = 0.2 + 0.8 * static_cast<double>((hash >> 8) & 0xFF) / 255.0;
  const double angle = 2.0 * M_PI * static_cast<double>((hash >> 16) & 0xFF) / 255.0;
  const double bias = static_cast<double>((hash >> 24) & 0xFF) / 255.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double u = std::cos(angle) * x - std::sin(angle) * y;
      const double v = std::sin(angle) * x + std::cos(angle) * y;
      for (int ch = 0; ch < c; ++ch) {
        const double phase = 2.0 * M_PI * ch / c;
        const double value = 0.25 * std::sin(fx * u + phase) + 0.25 * std::cos(fy * v) +
                             0.25 * (static_cast<double>(x + y) / (h + w)) + 0.25 * bias;
        image.at(y, static_cast<int64_t>(x) * c + ch) =
            static_cast<float>(std::clamp(value, 0.0, 1.0));
      }
    }
  }
  return image;
}

VisionTower::VisionTower(const VisionTowerConfig& config, uint64_t seed) : config_(config) {
  VLORA_CHECK(config.image_size % config.patch_size == 0);
  VLORA_CHECK(config.d_vision % config.num_heads == 0);
  Rng rng(seed);
  const int64_t dv = config.d_vision;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dv));
  patch_embed_ = Tensor::Random(Shape(config.patch_dim(), dv), rng,
                                1.0f / std::sqrt(static_cast<float>(config.patch_dim())));
  pos_embed_ = Tensor::Random(Shape(config.num_patches(), dv), rng, 0.1f);
  for (int b = 0; b < config.num_blocks; ++b) {
    Block block;
    block.wq = Tensor::Random(Shape(dv, dv), rng, scale);
    block.wk = Tensor::Random(Shape(dv, dv), rng, scale);
    block.wv = Tensor::Random(Shape(dv, dv), rng, scale);
    block.wo = Tensor::Random(Shape(dv, dv), rng, scale);
    block.w1 = Tensor::Random(Shape(dv, 2 * dv), rng, scale);
    block.w2 = Tensor::Random(Shape(2 * dv, dv), rng,
                              1.0f / std::sqrt(static_cast<float>(2 * dv)));
    block.norm1 = Tensor::Full(Shape(dv), 1.0f);
    block.norm2 = Tensor::Full(Shape(dv), 1.0f);
    blocks_.push_back(std::move(block));
  }
  final_norm_ = Tensor::Full(Shape(dv), 1.0f);
  projector_ = Tensor::Random(Shape(dv, config.d_model), rng, scale);
}

Tensor VisionTower::Encode(const Tensor& image) {
  const int64_t p = config_.patch_size;
  const int64_t c = config_.channels;
  const int64_t per_side = config_.image_size / p;
  const int64_t n = config_.num_patches();
  const int64_t dv = config_.d_vision;
  VLORA_CHECK(image.shape() == Shape(config_.image_size,
                                     static_cast<int64_t>(config_.image_size) * c));

  // Patchify: each patch flattens to (p*p*c) in row-major order.
  Tensor patches = Tensor::Zeros(Shape(n, config_.patch_dim()));
  for (int64_t py = 0; py < per_side; ++py) {
    for (int64_t px = 0; px < per_side; ++px) {
      float* dst = patches.data() + (py * per_side + px) * config_.patch_dim();
      for (int64_t y = 0; y < p; ++y) {
        const float* src = image.data() + (py * p + y) * image.shape().dim(1) + px * p * c;
        std::memcpy(dst + y * p * c, src, static_cast<size_t>(p * c) * sizeof(float));
      }
    }
  }

  // Patch embedding + learned positions.
  Tensor x = Tensor::Zeros(Shape(n, dv));
  atmm_.Execute(patches, patch_embed_, x);
  x.AddInPlace(pos_embed_);

  // Encoder blocks: bidirectional attention over all patches.
  Tensor normed = Tensor::Zeros(Shape(n, dv));
  Tensor q = Tensor::Zeros(Shape(n, dv));
  Tensor k = Tensor::Zeros(Shape(n, dv));
  Tensor v = Tensor::Zeros(Shape(n, dv));
  Tensor kt = Tensor::Zeros(Shape(dv, n));
  Tensor attn = Tensor::Zeros(Shape(n, dv));
  Tensor proj = Tensor::Zeros(Shape(n, dv));
  Tensor mid = Tensor::Zeros(Shape(n, 2 * dv));
  Tensor mlp = Tensor::Zeros(Shape(n, dv));
  const KvSpan span{kt.data(), v.data(), n};

  for (const Block& block : blocks_) {
    RmsNormRows(x.data(), block.norm1.data(), normed.data(), n, dv);
    q.Fill(0.0f);
    k.Fill(0.0f);
    v.Fill(0.0f);
    atmm_.Execute(normed, block.wq, q);
    atmm_.Execute(normed, block.wk, k);
    atmm_.Execute(normed, block.wv, v);
    PackKeyPanel(k.data(), n, dv, kt.data());
    Attention({.q = q.data(), .out = attn.data(), .num_rows = n, .spans = &span, .num_spans = 1,
               .ld = dv, .panel = n, .num_heads = config_.num_heads,
               .d_head = dv / config_.num_heads, .causal = false});
    proj.Fill(0.0f);
    atmm_.Execute(attn, block.wo, proj);
    x.AddInPlace(proj);

    RmsNormRows(x.data(), block.norm2.data(), normed.data(), n, dv);
    mid.Fill(0.0f);
    atmm_.Execute(normed, block.w1, mid);
    SiluInPlace(mid.data(), n * 2 * dv);
    mlp.Fill(0.0f);
    atmm_.Execute(mid, block.w2, mlp);
    x.AddInPlace(mlp);
  }

  // Final norm + vision-language projection into the LMM's space.
  RmsNormRows(x.data(), final_norm_.data(), normed.data(), n, dv);
  Tensor visual = Tensor::Zeros(Shape(n, config_.d_model));
  atmm_.Execute(normed, projector_, visual);
  return visual;
}

Tensor VisionTower::EncodeImageId(int64_t image_id) {
  return Encode(SyntheticImage(config_, image_id));
}

std::vector<int32_t> VisionTower::SurrogateTokens(const Tensor& embeddings) const {
  VLORA_CHECK(embeddings.shape().rank() == 2);
  const int64_t rows = embeddings.shape().dim(0);
  const int64_t d = embeddings.shape().dim(1);
  std::vector<int32_t> tokens;
  tokens.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    uint64_t h = 0xCBF29CE484222325ull;
    const float* row = embeddings.data() + r * d;
    for (int64_t i = 0; i < d; ++i) {
      uint32_t bits;
      std::memcpy(&bits, &row[i], sizeof(bits));
      h ^= bits;
      h *= 0x100000001B3ull;
    }
    tokens.push_back(static_cast<int32_t>(h & 0x7FFFFFFF));
  }
  return tokens;
}

}  // namespace vlora
