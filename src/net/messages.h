// Typed messages carried by the wire protocol (src/net/wire.h).
//
// Conversation, master side on the left:
//
//   setup     <- Hello            executor announces (replica index, pid)
//             -> Config, <- Ack   model + server options + window/heartbeat
//             -> LoadAdapter, <- Ack{adapter id}     (repeated; full weights)
//             -> Prewarm, <- Ack
//             -> Start            executor posts its worker loop
//   serving   -> Request          one EngineRequest, inside the send window
//             <- Result | Failure terminal outcome per request
//             <- Heartbeat        forwarded worker liveness, every period
//   disagg    -> KvHandleMeta, -> KvPage*N, -> Request{has_resume}
//                                 resume a handed-off request on a decode
//                                 executor (pages precede the request; the
//                                 channel is FIFO so assembly always wins)
//             <- KvHandleMeta, <- KvPage*N, <- Result{has_handle}
//                                 a prefill-only executor exporting KV state
//   shutdown  -> Stop             cancel queued, finish in-engine work
//             <- Goodbye          then EOF
//
// Every message struct lists its wire fields once, in a static Fields
// template that WireWriter runs to encode and WireReader runs to decode
// (wire.h). The list also carries the decode-side checks, as bounded ops or
// Require. A decode that fails (or leaves trailing bytes) is a protocol
// error and the connection is dropped — recovery then runs exactly as if
// the executor died.
//
// Adapter weights and task heads cross the wire bit-exact (raw float
// arrays): both backends serve from identical weights, which is what makes
// thread-vs-process result equality testable. This is the only adapter
// codec; executors receive adapters only as LoadAdapter frames.

#ifndef VLORA_SRC_NET_MESSAGES_H_
#define VLORA_SRC_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/server.h"
#include "src/engine/engine.h"
#include "src/engine/kv_handle.h"
#include "src/engine/model_config.h"
#include "src/lora/adapter.h"
#include "src/net/wire.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace net {

enum class MessageType : uint8_t {
  kHello = 1,
  kConfig = 2,
  kLoadAdapter = 3,
  kAck = 4,
  kPrewarm = 5,
  kStart = 6,
  kRequest = 7,
  kResult = 8,
  kFailure = 9,
  kHeartbeat = 10,
  kStop = 11,
  kGoodbye = 12,
  kKvHandleMeta = 13,
  kKvPage = 14,
};

constexpr const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello:
      return "Hello";
    case MessageType::kConfig:
      return "Config";
    case MessageType::kLoadAdapter:
      return "LoadAdapter";
    case MessageType::kAck:
      return "Ack";
    case MessageType::kPrewarm:
      return "Prewarm";
    case MessageType::kStart:
      return "Start";
    case MessageType::kRequest:
      return "Request";
    case MessageType::kResult:
      return "Result";
    case MessageType::kFailure:
      return "Failure";
    case MessageType::kHeartbeat:
      return "Heartbeat";
    case MessageType::kStop:
      return "Stop";
    case MessageType::kGoodbye:
      return "Goodbye";
    case MessageType::kKvHandleMeta:
      return "KvHandleMeta";
    case MessageType::kKvPage:
      return "KvPage";
  }
  return "Unknown";
}

// A decoded payload: validated versioned header + raw body bytes.
struct Envelope {
  MessageType type = MessageType::kHello;
  std::string body;
};

// Builds a complete frame (length prefix + header + body) for Channel/tests.
std::string EncodeFrame(MessageType type, const std::string& body);

// Validates magic/version/type and splits off the body.
Result<Envelope> DecodeEnvelope(const std::string& payload);

// Decode-side plausibility bounds. The wire peer is another process we
// forked, but a SIGKILL mid-write or a bug must surface as a clean Status.
inline constexpr int64_t kMaxTokens = 1 << 20;
inline constexpr int64_t kMaxInjected = 1024;
inline constexpr int64_t kMaxEmbeddingFloats = 1 << 24;
inline constexpr int64_t kMaxKvPageFloats = 1 << 22;  // one whole KV block, 16 MiB of f32
inline constexpr int64_t kMaxAdapterFloats = 1 << 26;
inline constexpr int64_t kMaxLayers = 1024;
inline constexpr int64_t kMaxDim = 1 << 20;

// A rows x cols matrix as one f32 run. Decoding shapes the tensor only once
// the frame is known to hold the run, so a forged shape cannot allocate more
// than the frame carries.
template <typename Io, typename T>
bool MatrixFields(Io& io, T& tensor, int64_t rows, int64_t cols) {
  const int64_t count = rows * cols;
  if constexpr (Io::kDecoding) {
    if (!io.Require(count <= kMaxAdapterFloats &&
                    static_cast<uint64_t>(count) <= io.remaining() / sizeof(float))) {
      return false;
    }
    tensor = Tensor(Shape(rows, cols));
  }
  return io.Floats(tensor.data(), static_cast<size_t>(count));
}

// A Require condition is evaluated on encode too, hence `num_heads > 0`
// ahead of the modulo although decoding has already bounded num_heads.
template <typename Io, typename C>
bool ModelConfigFields(Io& io, C& model) {
  return io.Text(model.name) && io.Int(model.num_layers, 1, kMaxLayers) &&
         io.Int(model.d_model, 1, kMaxDim) && io.Int(model.num_heads, 1, kMaxDim) &&
         io.Int(model.d_ff, 1, kMaxDim) && io.Int(model.vocab_size, 1, kMaxDim) &&
         io.Int(model.max_seq_len) && io.Int(model.visual_tokens_per_image) &&
         io.Fixed(model.vision_encoder_params_b) &&
         io.Require(model.num_heads > 0 && model.d_model % model.num_heads == 0 &&
                    model.max_seq_len > 0 && model.visual_tokens_per_image >= 0);
}

// One injected-embeddings span: its position, the matrix's rows and
// columns, then its floats. A decode starts from an empty tensor.
template <typename Io, typename E>
bool InjectedFields(Io& io, E& injected) {
  const bool shaped = !injected.embeddings.empty();
  int64_t rows = shaped ? injected.embeddings.shape().dim(0) : 0;
  int64_t cols = shaped ? injected.embeddings.shape().dim(1) : 0;
  return io.Int(injected.position) && io.Size(rows, kMaxEmbeddingFloats) &&
         io.Size(cols, kMaxEmbeddingFloats) &&
         io.Require(rows > 0 && cols > 0 && rows * cols <= kMaxEmbeddingFloats) &&
         MatrixFields(io, injected.embeddings, rows, cols);
}

// A KvHandle's KvHandleMeta frame: every field but the page payloads, which
// follow as KvPage frames; the page count is encoded from pages.size().
// Decoding checks the structural invariants of a well-formed handle
// (src/engine/kv_handle.h) — whole-block pages covering exactly `computed`
// tokens, and a token buffer of prompt + sampled tokens — and leaves one
// indexed, empty page per block for the KvPage frames to fill. The engine
// re-checks on restore; rejecting here turns a corrupt peer into a clean
// protocol error.
template <typename Io, typename H>
bool KvHandleMetaFields(Io& io, H& handle) {
  auto num_pages = static_cast<int64_t>(handle.pages.size());
  if (!(io.Int(handle.request_id) && io.Int(handle.computed, 1, kMaxTokens) &&
        io.Int(handle.reused, 0, handle.computed) && io.Int(handle.generated, 1, kMaxTokens) &&
        io.Int(handle.block_size, 1, kMaxTokens) && io.Int(num_pages, 1, kMaxTokens) &&
        io.Ints(handle.tokens, kMaxTokens) &&
        io.Floats(handle.captured_hidden, kMaxEmbeddingFloats) &&
        io.Require(static_cast<int64_t>(handle.tokens.size()) ==
                   handle.computed + handle.generated))) {
    return false;
  }
  if constexpr (Io::kDecoding) {
    const int64_t blocks = (handle.computed + handle.block_size - 1) / handle.block_size;
    if (!io.Require(num_pages == blocks)) {
      return false;
    }
    handle.pages.resize(static_cast<size_t>(num_pages));
    for (size_t i = 0; i < handle.pages.size(); ++i) {
      handle.pages[i].index = static_cast<int64_t>(i);
    }
  }
  return true;
}

struct HelloMessage {
  static constexpr MessageType kType = MessageType::kHello;
  int32_t replica = -1;
  int64_t pid = 0;

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    return io.Int(m.replica) && io.Int(m.pid);
  }
};

// The model and the ServerOptions the executor builds its engine from, plus
// the master-imposed send window (the executor's own queue capacity) and the
// heartbeat forwarding period.
struct ConfigMessage {
  static constexpr MessageType kType = MessageType::kConfig;
  ModelConfig model;
  ServerOptions server;
  int64_t queue_capacity = 8;
  double heartbeat_period_ms = 20.0;

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    auto& s = m.server;
    return ModelConfigFields(io, m.model) && io.Int(s.engine.kv_block_size) &&
           io.Int(s.engine.kv_num_blocks) && io.Fixed(s.engine.seed) &&
           io.Int(s.engine.compute_threads, 1, kMaxComputeThreads) &&
           io.Fixed(s.alg1.theta_ms) && io.Fixed(s.alg1.exec_estimate_ms) &&
           io.Fixed(s.alg1.switch_ms) && io.Fixed(s.alg1.slo_urgency_fraction) &&
           io.Int(s.max_batch_size, 1, 4096) && io.Int(s.device_pool_bytes) &&
           io.Int(m.queue_capacity, 1, 1 << 20) && io.Fixed(m.heartbeat_period_ms) &&
           io.Require(s.engine.kv_block_size > 0 && s.engine.kv_num_blocks > 0 &&
                      s.device_pool_bytes > 0 && m.heartbeat_period_ms > 0.0);
  }
};

struct AckMessage {
  static constexpr MessageType kType = MessageType::kAck;
  int32_t value = 0;  // e.g. the adapter id assigned by AddAdapter
  StatusCode code = StatusCode::kOk;
  std::string message;

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    return io.Int(m.value) && io.Enum(m.code, StatusCode::kUnavailable) && io.Text(m.message);
  }
};

struct PrewarmMessage {
  static constexpr MessageType kType = MessageType::kPrewarm;
  std::vector<int32_t> adapter_ids;

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    return io.Ints(m.adapter_ids, kMaxTokens);
  }
};

struct StartMessage {
  static constexpr MessageType kType = MessageType::kStart;

  template <typename Io, typename M>
  static bool Fields(Io&, M&) {
    return true;
  }
};

struct RequestMessage {
  static constexpr MessageType kType = MessageType::kRequest;
  EngineRequest request;
  // Decode side of the disagg handoff: true when the sender attached a
  // resume handle, shipped as preceding KvHandleMeta/KvPage frames (the
  // handle pointer itself never crosses the wire). The receiver must have
  // the assembled handle for request.id on hand or the frame is a protocol
  // error. Encoding derives it from request.resume_handle.
  bool has_resume = false;

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    auto& r = m.request;
    bool has_resume = r.resume_handle != nullptr;
    if (!(io.Int(r.id) && io.Int(r.adapter_id) && io.Int(r.max_new_tokens) &&
          io.Bool(r.use_task_head) && io.Int(r.eos_token) && io.Fixed(r.sampling.temperature) &&
          io.Int(r.sampling.top_k) && io.Fixed(r.sampling.seed) &&
          io.Bool(r.capture_final_hidden) && io.Ints(r.prompt_tokens, kMaxTokens) &&
          io.Repeated(r.injected, kMaxInjected,
                      [&io](auto& injected) { return InjectedFields(io, injected); }) &&
          io.Bool(r.prefill_only) && io.Bool(has_resume) &&
          // The stages are mutually exclusive, on the wire too.
          io.Require(!(r.prefill_only && has_resume)))) {
      return false;
    }
    if constexpr (Io::kDecoding) {
      m.has_resume = has_resume;
    }
    return true;
  }
};

struct ResultMessage {
  static constexpr MessageType kType = MessageType::kResult;
  EngineResult result;
  // Mirror of RequestMessage::has_resume for the executor -> master leg:
  // true when this result's KvHandle was shipped as preceding frames.
  // Encoding derives it from result.handle.
  bool expects_handle = false;

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    auto& r = m.result;
    bool expects_handle = r.handle != nullptr;
    if (!(io.Int(r.request_id) && io.Ints(r.output_tokens, kMaxTokens) &&
          io.Int(r.head_option) && io.Int(r.prefill_tokens) && io.Int(r.reused_tokens) &&
          io.Int(r.decode_steps) && io.Floats(r.final_hidden, kMaxTokens) &&
          io.Bool(expects_handle))) {
      return false;
    }
    if constexpr (Io::kDecoding) {
      m.expects_handle = expects_handle;
    }
    return true;
  }
};

struct FailureMessage {
  static constexpr MessageType kType = MessageType::kFailure;
  int64_t request_id = 0;
  StatusCode code = StatusCode::kInternal;
  std::string message;

  Status ToStatus() const { return Status(code, message); }

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    return io.Int(m.request_id) && io.Enum(m.code, StatusCode::kUnavailable) &&
           io.Text(m.message);
  }
};

// The executor forwards its ThreadReplica's own liveness stamp: worker_ms
// stops advancing during a stall or after a crash-wedge, and the master
// beats only when it moves, so stall quarantine works unchanged over the
// wire.
struct HeartbeatMessage {
  static constexpr MessageType kType = MessageType::kHeartbeat;
  double worker_ms = 0.0;  // executor-clock worker heartbeat

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    return io.Fixed(m.worker_ms);
  }
};

struct StopMessage {
  static constexpr MessageType kType = MessageType::kStop;

  template <typename Io, typename M>
  static bool Fields(Io&, M&) {
    return true;
  }
};

struct GoodbyeMessage {
  static constexpr MessageType kType = MessageType::kGoodbye;

  template <typename Io, typename M>
  static bool Fields(Io&, M&) {
    return true;
  }
};

// Disaggregated KV handoff: a KvHandle crosses the wire as one KvHandleMeta
// frame followed by exactly one KvPage frame per page, all keyed by
// request_id and sent before the Request/Result frame that references them.
// Channel sends are whole-frame and FIFO, so the receiver always finishes
// assembling the handle before the referencing frame arrives; a referencing
// frame with no (or an incomplete) assembled handle is a protocol error.
struct KvHandleMetaMessage {
  static constexpr MessageType kType = MessageType::kKvHandleMeta;
  // Decoded with the page skeleton only; KvPage frames carry the data.
  KvHandle handle;

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    return KvHandleMetaFields(io, m.handle);
  }
};

struct KvPageMessage {
  static constexpr MessageType kType = MessageType::kKvPage;
  int64_t request_id = 0;
  int64_t page_index = 0;  // position in KvHandle::pages, 0-based
  std::vector<float> data;

  template <typename Io, typename M>
  static bool Fields(Io& io, M& m) {
    return io.Int(m.request_id) && io.Int(m.page_index, 0, kMaxTokens - 1) &&
           io.Floats(m.data, kMaxKvPageFloats) && io.Require(!m.data.empty());
  }
};

// Full-weight adapter shipping: targets, per-(target, layer) factors, the
// optional task head and the fused-domain list.
void AppendAdapter(WireWriter& w, const LoraAdapter& adapter);
Result<LoraAdapter> ParseAdapter(WireReader& r);

// Encodes one message's body with its field list.
template <typename M>
std::string EncodeBody(const M& message) {
  WireWriter writer;
  M::Fields(writer, message);
  return writer.Take();
}

// Decodes one typed message out of an envelope, requiring full consumption.
template <typename M>
Result<M> DecodeAs(const Envelope& envelope) {
  if (envelope.type != M::kType) {
    return Status::InvalidArgument(std::string("expected ") + MessageTypeName(M::kType) +
                                   ", got " + MessageTypeName(envelope.type));
  }
  WireReader reader(envelope.body);
  M message;
  if (!M::Fields(reader, message) || !reader.Done()) {
    return Status::InvalidArgument(std::string("malformed ") + MessageTypeName(M::kType) +
                                   " body");
  }
  return message;
}

template <typename M>
std::string EncodeMessageFrame(const M& message) {
  return EncodeFrame(M::kType, EncodeBody(message));
}

}  // namespace net
}  // namespace vlora

#endif  // VLORA_SRC_NET_MESSAGES_H_
