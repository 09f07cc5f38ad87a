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
// Every message struct pairs AppendTo(WireWriter&) with a bool-returning
// Parse(WireReader&, T*) that validates bounds; a Parse that returns false
// (or leaves trailing bytes) is a protocol error and the connection is
// dropped — recovery then runs exactly as if the executor died.
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
#include "src/engine/model_config.h"
#include "src/lora/adapter.h"
#include "src/net/wire.h"

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

struct HelloMessage {
  static constexpr MessageType kType = MessageType::kHello;
  int32_t replica = -1;
  int64_t pid = 0;

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, HelloMessage* out);
};

// ModelConfig + the ServerOptions the executor builds its engine from, plus
// the master-imposed send window (the executor's own queue capacity) and the
// heartbeat forwarding period.
struct ConfigMessage {
  static constexpr MessageType kType = MessageType::kConfig;
  ModelConfig model;
  int64_t kv_block_size = 16;
  int64_t kv_num_blocks = 512;
  uint64_t engine_seed = 42;
  double theta_ms = 150.0;
  double exec_estimate_ms = 40.0;
  double switch_ms = 8.0;
  double slo_urgency_fraction = 0.0;
  int32_t max_batch_size = 8;
  int64_t device_pool_bytes = 64LL << 20;
  int64_t queue_capacity = 8;
  double heartbeat_period_ms = 20.0;

  static ConfigMessage FromOptions(const ModelConfig& model, const ServerOptions& server,
                                   int64_t queue_capacity, double heartbeat_period_ms);
  ServerOptions ToServerOptions() const;

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, ConfigMessage* out);
};

struct AckMessage {
  static constexpr MessageType kType = MessageType::kAck;
  int32_t value = 0;  // e.g. the adapter id assigned by AddAdapter
  StatusCode code = StatusCode::kOk;
  std::string message;

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, AckMessage* out);
};

struct PrewarmMessage {
  static constexpr MessageType kType = MessageType::kPrewarm;
  std::vector<int32_t> adapter_ids;

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, PrewarmMessage* out);
};

struct StartMessage {
  static constexpr MessageType kType = MessageType::kStart;
  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, StartMessage* out);
};

struct RequestMessage {
  static constexpr MessageType kType = MessageType::kRequest;
  EngineRequest request;
  // Decode side of the disagg handoff: true when the sender attached a
  // resume handle, shipped as preceding KvHandleMeta/KvPage frames (the
  // handle pointer itself never crosses the wire). The receiver must have
  // the assembled handle for request.id on hand or the frame is a protocol
  // error. AppendTo derives it from request.resume_handle.
  bool has_resume = false;

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, RequestMessage* out);
};

struct ResultMessage {
  static constexpr MessageType kType = MessageType::kResult;
  EngineResult result;
  // Mirror of RequestMessage::has_resume for the executor -> master leg:
  // true when this result's KvHandle was shipped as preceding frames.
  // AppendTo derives it from result.handle.
  bool expects_handle = false;

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, ResultMessage* out);
};

struct FailureMessage {
  static constexpr MessageType kType = MessageType::kFailure;
  int64_t request_id = 0;
  StatusCode code = StatusCode::kInternal;
  std::string message;

  Status ToStatus() const { return Status(code, message); }

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, FailureMessage* out);
};

// The executor forwards its ThreadReplica's own liveness stamp: worker_ms
// stops advancing during a stall or after a crash-wedge, and the master
// beats only when it moves, so stall quarantine works unchanged over the
// wire.
struct HeartbeatMessage {
  static constexpr MessageType kType = MessageType::kHeartbeat;
  double worker_ms = 0.0;  // executor-clock worker heartbeat

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, HeartbeatMessage* out);
};

struct StopMessage {
  static constexpr MessageType kType = MessageType::kStop;
  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, StopMessage* out);
};

struct GoodbyeMessage {
  static constexpr MessageType kType = MessageType::kGoodbye;
  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, GoodbyeMessage* out);
};

// Disaggregated KV handoff: a KvHandle crosses the wire as one KvHandleMeta
// frame followed by exactly num_pages KvPage frames, all keyed by request_id
// and sent before the Request/Result frame that references them. Channel
// sends are whole-frame and FIFO, so the receiver always finishes assembling
// the handle before the referencing frame arrives; a referencing frame with
// no (or an incomplete) assembled handle is a protocol error.
struct KvHandleMetaMessage {
  static constexpr MessageType kType = MessageType::kKvHandleMeta;
  int64_t request_id = 0;
  int64_t computed = 0;
  int64_t reused = 0;
  int64_t generated = 0;
  int64_t block_size = 0;
  int64_t num_pages = 0;
  std::vector<int32_t> tokens;
  std::vector<float> captured_hidden;

  static KvHandleMetaMessage FromHandle(const KvHandle& handle);
  // Fills `out` from the (already Parse-validated) meta, with num_pages
  // default-constructed pages for the KvPage frames to fill in.
  void ToHandle(KvHandle* out) const;

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, KvHandleMetaMessage* out);
};

struct KvPageMessage {
  static constexpr MessageType kType = MessageType::kKvPage;
  int64_t request_id = 0;
  int64_t page_index = 0;  // position in KvHandle::pages, 0-based
  std::vector<float> data;

  void AppendTo(WireWriter& w) const;
  static bool Parse(WireReader& r, KvPageMessage* out);
};

// Full-weight adapter shipping: targets, per-(target, layer) factors, the
// optional task head and the fused-domain list.
void AppendAdapter(WireWriter& w, const LoraAdapter& adapter);
Result<LoraAdapter> ParseAdapter(WireReader& r);

// Decodes one typed message out of an envelope, requiring full consumption.
template <typename M>
Result<M> DecodeAs(const Envelope& envelope) {
  if (envelope.type != M::kType) {
    return Status::InvalidArgument(std::string("expected ") + MessageTypeName(M::kType) +
                                   ", got " + MessageTypeName(envelope.type));
  }
  WireReader reader(envelope.body);
  M message;
  if (!M::Parse(reader, &message) || !reader.Done()) {
    return Status::InvalidArgument(std::string("malformed ") + MessageTypeName(M::kType) +
                                   " body");
  }
  return message;
}

template <typename M>
std::string EncodeMessageFrame(const M& message) {
  WireWriter writer;
  message.AppendTo(writer);
  return EncodeFrame(M::kType, writer.Take());
}

}  // namespace net
}  // namespace vlora

#endif  // VLORA_SRC_NET_MESSAGES_H_
