// KvHandle: a portable snapshot of a sequence's paged KV state, produced by
// a prefill-only replica and consumed by a decode replica.
//
// The handle carries everything a fresh engine needs to resume decoding as
// if it had run the prefill itself: the token buffer (prompt plus the first
// sampled token), the prefill bookkeeping (computed / reused / generated),
// and one KvPage per KV block — a verbatim copy of the block's floats in the
// engine's native layout (per layer a key panel then value rows, see
// kv_cache.h); both ends run one binary, so the layout needs no conversion.
// Pages are whole-block copies; the tail of a partially filled last block is
// never read by the consumer, because every read is bounded by `computed`.
//
// Handles are immutable once built. Thread replicas move the shared_ptr
// through the handoff handler; process replicas serialise the same struct as
// KvHandleMeta + KvPage frames (src/net/messages.h) and rebuild it on the
// far side, so retries can re-send an already-built handle without copying.

#ifndef VLORA_SRC_ENGINE_KV_HANDLE_H_
#define VLORA_SRC_ENGINE_KV_HANDLE_H_

#include <cstdint>
#include <vector>

namespace vlora {

// One KV block's payload. `index` is the block's position in the sequence
// (0-based), not a block id: block ids are engine-private.
struct KvPage {
  int64_t index = 0;
  std::vector<float> data;  // exactly KvBlockManager::FloatsPerBlock() floats
};

struct KvHandle {
  int64_t request_id = 0;
  // Prompt tokens plus every token sampled so far (one, at a prefill-only
  // export). The decode engine resumes with exactly this buffer.
  std::vector<int32_t> tokens;
  int64_t computed = 0;   // tokens with KV present (== prompt length)
  int64_t reused = 0;     // prefix tokens the prefill engine reused
  int64_t generated = 0;  // tokens sampled so far (== 1)
  int64_t block_size = 0; // producer's KV block size; must match the consumer
  // Final hidden state captured at prefill, when the request asked for it.
  std::vector<float> captured_hidden;
  std::vector<KvPage> pages;  // ceil(computed / block_size) whole blocks

  int64_t TotalFloats() const {
    int64_t total = 0;
    for (const KvPage& page : pages) {
      total += static_cast<int64_t>(page.data.size());
    }
    return total;
  }
};

}  // namespace vlora

#endif  // VLORA_SRC_ENGINE_KV_HANDLE_H_
