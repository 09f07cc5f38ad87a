#include "src/net/messages.h"

#include <cstring>
#include <utility>

#include "src/common/rng.h"
#include "src/common/vision_task.h"

namespace vlora {
namespace net {

namespace {

// Decode-side plausibility bounds. The wire peer is another process we
// forked, but a SIGKILL mid-write or a bug must surface as a clean Status.
constexpr uint64_t kMaxTokens = 1u << 20;
constexpr uint64_t kMaxInjected = 1024;
constexpr uint64_t kMaxEmbeddingFloats = 1u << 24;
constexpr uint64_t kMaxKvPageFloats = 1u << 22;  // one whole KV block, 16 MiB of f32
constexpr uint64_t kMaxAdapterFloats = 1u << 26;
constexpr int64_t kMaxLayers = 1024;
constexpr int64_t kMaxDim = 1 << 20;

bool StatusCodeFromWire(uint8_t raw, StatusCode* out) {
  if (raw > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return false;
  }
  *out = static_cast<StatusCode>(raw);
  return true;
}

bool ReadTensor(WireReader& r, int64_t rows, int64_t cols, Tensor* out) {
  std::vector<float> data;
  if (!r.F32Array(&data, kMaxAdapterFloats)) {
    return false;
  }
  if (static_cast<int64_t>(data.size()) != rows * cols) {
    return false;
  }
  *out = Tensor(Shape(rows, cols));
  std::memcpy(out->data(), data.data(), data.size() * sizeof(float));
  return true;
}

void AppendModelConfig(WireWriter& w, const ModelConfig& model) {
  w.Str(model.name);
  w.SignedVarint(model.num_layers);
  w.SignedVarint(model.d_model);
  w.SignedVarint(model.num_heads);
  w.SignedVarint(model.d_ff);
  w.SignedVarint(model.vocab_size);
  w.SignedVarint(model.max_seq_len);
  w.SignedVarint(model.visual_tokens_per_image);
  w.F64(model.vision_encoder_params_b);
}

bool ParseModelConfig(WireReader& r, ModelConfig* model) {
  int64_t num_layers = 0;
  int64_t num_heads = 0;
  if (!r.Str(&model->name) || !r.SignedVarint(&num_layers) || !r.SignedVarint(&model->d_model) ||
      !r.SignedVarint(&num_heads) || !r.SignedVarint(&model->d_ff) ||
      !r.SignedVarint(&model->vocab_size) || !r.SignedVarint(&model->max_seq_len) ||
      !r.SignedVarint(&model->visual_tokens_per_image) ||
      !r.F64(&model->vision_encoder_params_b)) {
    return false;
  }
  if (num_layers <= 0 || num_layers > kMaxLayers || model->d_model <= 0 ||
      model->d_model > kMaxDim || num_heads <= 0 || model->d_model % num_heads != 0 ||
      model->d_ff <= 0 || model->d_ff > kMaxDim || model->vocab_size <= 0 ||
      model->vocab_size > kMaxDim || model->max_seq_len <= 0 ||
      model->visual_tokens_per_image < 0) {
    return false;
  }
  model->num_layers = static_cast<int>(num_layers);
  model->num_heads = static_cast<int>(num_heads);
  return true;
}

}  // namespace

// The frame header writer and reader deliberately differ in shape: the
// encoder frames a finished body, the decoder validates and strips.
// vlora-codec: pair(EncodeFrame, DecodeEnvelope)
std::string EncodeFrame(MessageType type, const std::string& body) {
  WireWriter header;
  header.U16(kWireMagic);
  header.U8(kProtocolVersion);
  header.U8(static_cast<uint8_t>(type));
  std::string payload = header.Take();
  payload.append(body);
  return FramePayload(payload);
}

Result<Envelope> DecodeEnvelope(const std::string& payload) {
  WireReader reader(payload);
  uint16_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  if (!reader.U16(&magic) || !reader.U8(&version) || !reader.U8(&type)) {
    return Status::InvalidArgument("payload shorter than the message header");
  }
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad wire magic");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " + std::to_string(version));
  }
  if (type < static_cast<uint8_t>(MessageType::kHello) ||
      type > static_cast<uint8_t>(MessageType::kKvPage)) {
    return Status::InvalidArgument("unknown message type " + std::to_string(type));
  }
  Envelope envelope;
  envelope.type = static_cast<MessageType>(type);
  envelope.body = payload.substr(payload.size() - reader.remaining());
  return envelope;
}

void HelloMessage::AppendTo(WireWriter& w) const {
  w.SignedVarint(replica);
  w.SignedVarint(pid);
}

bool HelloMessage::Parse(WireReader& r, HelloMessage* out) {
  int64_t replica = 0;
  if (!r.SignedVarint(&replica) || !r.SignedVarint(&out->pid)) {
    return false;
  }
  out->replica = static_cast<int32_t>(replica);
  return true;
}

ConfigMessage ConfigMessage::FromOptions(const ModelConfig& model, const ServerOptions& server,
                                         int64_t queue_capacity, double heartbeat_period_ms) {
  ConfigMessage config;
  config.model = model;
  config.kv_block_size = server.engine.kv_block_size;
  config.kv_num_blocks = server.engine.kv_num_blocks;
  config.engine_seed = server.engine.seed;
  config.theta_ms = server.alg1.theta_ms;
  config.exec_estimate_ms = server.alg1.exec_estimate_ms;
  config.switch_ms = server.alg1.switch_ms;
  config.slo_urgency_fraction = server.alg1.slo_urgency_fraction;
  config.max_batch_size = server.max_batch_size;
  config.device_pool_bytes = server.device_pool_bytes;
  config.queue_capacity = queue_capacity;
  config.heartbeat_period_ms = heartbeat_period_ms;
  return config;
}

ServerOptions ConfigMessage::ToServerOptions() const {
  ServerOptions server;
  server.engine.kv_block_size = kv_block_size;
  server.engine.kv_num_blocks = kv_num_blocks;
  server.engine.seed = engine_seed;
  server.alg1.theta_ms = theta_ms;
  server.alg1.exec_estimate_ms = exec_estimate_ms;
  server.alg1.switch_ms = switch_ms;
  server.alg1.slo_urgency_fraction = slo_urgency_fraction;
  server.max_batch_size = max_batch_size;
  server.device_pool_bytes = device_pool_bytes;
  return server;
}

void ConfigMessage::AppendTo(WireWriter& w) const {
  AppendModelConfig(w, model);
  w.SignedVarint(kv_block_size);
  w.SignedVarint(kv_num_blocks);
  w.U64(engine_seed);
  w.F64(theta_ms);
  w.F64(exec_estimate_ms);
  w.F64(switch_ms);
  w.F64(slo_urgency_fraction);
  w.SignedVarint(max_batch_size);
  w.SignedVarint(device_pool_bytes);
  w.SignedVarint(queue_capacity);
  w.F64(heartbeat_period_ms);
}

bool ConfigMessage::Parse(WireReader& r, ConfigMessage* out) {
  int64_t max_batch_size = 0;
  if (!ParseModelConfig(r, &out->model) || !r.SignedVarint(&out->kv_block_size) ||
      !r.SignedVarint(&out->kv_num_blocks) || !r.U64(&out->engine_seed) ||
      !r.F64(&out->theta_ms) || !r.F64(&out->exec_estimate_ms) || !r.F64(&out->switch_ms) ||
      !r.F64(&out->slo_urgency_fraction) || !r.SignedVarint(&max_batch_size) ||
      !r.SignedVarint(&out->device_pool_bytes) || !r.SignedVarint(&out->queue_capacity) ||
      !r.F64(&out->heartbeat_period_ms)) {
    return false;
  }
  if (out->kv_block_size <= 0 || out->kv_num_blocks <= 0 || max_batch_size <= 0 ||
      max_batch_size > 4096 || out->device_pool_bytes <= 0 || out->queue_capacity <= 0 ||
      out->queue_capacity > (1 << 20) || !(out->heartbeat_period_ms > 0.0)) {
    return false;
  }
  out->max_batch_size = static_cast<int32_t>(max_batch_size);
  return true;
}

void AckMessage::AppendTo(WireWriter& w) const {
  w.SignedVarint(value);
  w.U8(static_cast<uint8_t>(code));
  w.Str(message);
}

bool AckMessage::Parse(WireReader& r, AckMessage* out) {
  int64_t value = 0;
  uint8_t code = 0;
  if (!r.SignedVarint(&value) || !r.U8(&code) || !StatusCodeFromWire(code, &out->code) ||
      !r.Str(&out->message)) {
    return false;
  }
  out->value = static_cast<int32_t>(value);
  return true;
}

void PrewarmMessage::AppendTo(WireWriter& w) const {
  w.I32Array(adapter_ids.data(), adapter_ids.size());
}

bool PrewarmMessage::Parse(WireReader& r, PrewarmMessage* out) {
  return r.I32Array(&out->adapter_ids, kMaxTokens);
}

void StartMessage::AppendTo(WireWriter& w) const { (void)w; }

bool StartMessage::Parse(WireReader& r, StartMessage* out) {
  (void)r;
  (void)out;
  return true;
}

void RequestMessage::AppendTo(WireWriter& w) const {
  w.SignedVarint(request.id);
  w.SignedVarint(request.adapter_id);
  w.SignedVarint(request.max_new_tokens);
  w.U8(request.use_task_head ? 1 : 0);
  w.SignedVarint(request.eos_token);
  w.F32(request.sampling.temperature);
  w.SignedVarint(request.sampling.top_k);
  w.U64(request.sampling.seed);
  w.U8(request.capture_final_hidden ? 1 : 0);
  w.I32Array(request.prompt_tokens.data(), request.prompt_tokens.size());
  w.Varint(request.injected.size());
  for (const InjectedEmbeddings& injected : request.injected) {
    const int64_t rows = injected.embeddings.shape().dim(0);
    const int64_t cols = injected.embeddings.shape().dim(1);
    w.SignedVarint(injected.position);
    w.Varint(static_cast<uint64_t>(rows));
    w.Varint(static_cast<uint64_t>(cols));
    w.F32Array(injected.embeddings.data(), static_cast<size_t>(rows * cols));
  }
  w.U8(request.prefill_only ? 1 : 0);
  w.U8(request.resume_handle != nullptr ? 1 : 0);
}

bool RequestMessage::Parse(WireReader& r, RequestMessage* out) {
  EngineRequest& request = out->request;
  int64_t max_new_tokens = 0;
  int64_t adapter_id = 0;
  int64_t eos_token = 0;
  int64_t top_k = 0;
  uint8_t use_task_head = 0;
  uint8_t capture_final_hidden = 0;
  uint64_t injected_count = 0;
  if (!r.SignedVarint(&request.id) || !r.SignedVarint(&adapter_id) ||
      !r.SignedVarint(&max_new_tokens) || !r.U8(&use_task_head) || !r.SignedVarint(&eos_token) ||
      !r.F32(&request.sampling.temperature) || !r.SignedVarint(&top_k) ||
      !r.U64(&request.sampling.seed) || !r.U8(&capture_final_hidden) ||
      !r.I32Array(&request.prompt_tokens, kMaxTokens) || !r.Varint(&injected_count) ||
      injected_count > kMaxInjected) {
    return false;
  }
  request.adapter_id = static_cast<int>(adapter_id);
  request.max_new_tokens = static_cast<int>(max_new_tokens);
  request.use_task_head = use_task_head != 0;
  request.eos_token = static_cast<int32_t>(eos_token);
  request.sampling.top_k = static_cast<int>(top_k);
  request.capture_final_hidden = capture_final_hidden != 0;
  request.injected.clear();
  request.injected.reserve(injected_count);
  for (uint64_t i = 0; i < injected_count; ++i) {
    InjectedEmbeddings injected;
    uint64_t rows = 0;
    uint64_t cols = 0;
    if (!r.SignedVarint(&injected.position) || !r.Varint(&rows) || !r.Varint(&cols) ||
        rows == 0 || cols == 0 || rows > kMaxEmbeddingFloats || cols > kMaxEmbeddingFloats ||
        rows * cols > kMaxEmbeddingFloats) {
      return false;
    }
    if (!ReadTensor(r, static_cast<int64_t>(rows), static_cast<int64_t>(cols),
                    &injected.embeddings)) {
      return false;
    }
    request.injected.push_back(std::move(injected));
  }
  uint8_t prefill_only = 0;
  uint8_t has_resume = 0;
  if (!r.U8(&prefill_only) || !r.U8(&has_resume) || (prefill_only != 0 && has_resume != 0)) {
    return false;  // the stages are mutually exclusive, on the wire too
  }
  request.prefill_only = prefill_only != 0;
  out->has_resume = has_resume != 0;
  return true;
}

void ResultMessage::AppendTo(WireWriter& w) const {
  w.SignedVarint(result.request_id);
  w.I32Array(result.output_tokens.data(), result.output_tokens.size());
  w.SignedVarint(result.head_option);
  w.SignedVarint(result.prefill_tokens);
  w.SignedVarint(result.reused_tokens);
  w.SignedVarint(result.decode_steps);
  w.F32Array(result.final_hidden.data(), result.final_hidden.size());
  w.U8(result.handle != nullptr ? 1 : 0);
}

bool ResultMessage::Parse(WireReader& r, ResultMessage* out) {
  EngineResult& result = out->result;
  int64_t head_option = 0;
  uint8_t expects_handle = 0;
  if (!r.SignedVarint(&result.request_id) || !r.I32Array(&result.output_tokens, kMaxTokens) ||
      !r.SignedVarint(&head_option) || !r.SignedVarint(&result.prefill_tokens) ||
      !r.SignedVarint(&result.reused_tokens) || !r.SignedVarint(&result.decode_steps) ||
      !r.F32Array(&result.final_hidden, kMaxTokens) || !r.U8(&expects_handle)) {
    return false;
  }
  result.head_option = static_cast<int>(head_option);
  out->expects_handle = expects_handle != 0;
  return true;
}

void FailureMessage::AppendTo(WireWriter& w) const {
  w.SignedVarint(request_id);
  w.U8(static_cast<uint8_t>(code));
  w.Str(message);
}

bool FailureMessage::Parse(WireReader& r, FailureMessage* out) {
  uint8_t code = 0;
  return r.SignedVarint(&out->request_id) && r.U8(&code) &&
         StatusCodeFromWire(code, &out->code) && r.Str(&out->message);
}

void HeartbeatMessage::AppendTo(WireWriter& w) const { w.F64(worker_ms); }

bool HeartbeatMessage::Parse(WireReader& r, HeartbeatMessage* out) {
  return r.F64(&out->worker_ms);
}

void StopMessage::AppendTo(WireWriter& w) const { (void)w; }

bool StopMessage::Parse(WireReader& r, StopMessage* out) {
  (void)r;
  (void)out;
  return true;
}

void GoodbyeMessage::AppendTo(WireWriter& w) const { (void)w; }

bool GoodbyeMessage::Parse(WireReader& r, GoodbyeMessage* out) {
  (void)r;
  (void)out;
  return true;
}

KvHandleMetaMessage KvHandleMetaMessage::FromHandle(const KvHandle& handle) {
  KvHandleMetaMessage meta;
  meta.request_id = handle.request_id;
  meta.computed = handle.computed;
  meta.reused = handle.reused;
  meta.generated = handle.generated;
  meta.block_size = handle.block_size;
  meta.num_pages = static_cast<int64_t>(handle.pages.size());
  meta.tokens = handle.tokens;
  meta.captured_hidden = handle.captured_hidden;
  return meta;
}

void KvHandleMetaMessage::ToHandle(KvHandle* out) const {
  out->request_id = request_id;
  out->tokens = tokens;
  out->computed = computed;
  out->reused = reused;
  out->generated = generated;
  out->block_size = block_size;
  out->captured_hidden = captured_hidden;
  out->pages.clear();
  out->pages.resize(static_cast<size_t>(num_pages));
  for (size_t i = 0; i < out->pages.size(); ++i) {
    out->pages[i].index = static_cast<int64_t>(i);
  }
}

void KvHandleMetaMessage::AppendTo(WireWriter& w) const {
  w.SignedVarint(request_id);
  w.SignedVarint(computed);
  w.SignedVarint(reused);
  w.SignedVarint(generated);
  w.SignedVarint(block_size);
  w.SignedVarint(num_pages);
  w.I32Array(tokens.data(), tokens.size());
  w.F32Array(captured_hidden.data(), captured_hidden.size());
}

bool KvHandleMetaMessage::Parse(WireReader& r, KvHandleMetaMessage* out) {
  if (!r.SignedVarint(&out->request_id) || !r.SignedVarint(&out->computed) ||
      !r.SignedVarint(&out->reused) || !r.SignedVarint(&out->generated) ||
      !r.SignedVarint(&out->block_size) || !r.SignedVarint(&out->num_pages) ||
      !r.I32Array(&out->tokens, kMaxTokens) ||
      !r.F32Array(&out->captured_hidden, kMaxEmbeddingFloats)) {
    return false;
  }
  // Structural invariants of a well-formed handle (src/engine/kv_handle.h):
  // whole-block pages covering exactly `computed` tokens, and a token buffer
  // of prompt + sampled tokens. The engine re-checks on restore; rejecting
  // here turns a corrupt peer into a clean protocol error.
  if (out->computed <= 0 || out->computed > static_cast<int64_t>(kMaxTokens) ||
      out->generated <= 0 || out->generated > static_cast<int64_t>(kMaxTokens) ||
      out->reused < 0 || out->reused > out->computed || out->block_size <= 0 ||
      out->block_size > static_cast<int64_t>(kMaxTokens)) {
    return false;
  }
  const int64_t expected_pages = (out->computed + out->block_size - 1) / out->block_size;
  if (out->num_pages != expected_pages ||
      static_cast<int64_t>(out->tokens.size()) != out->computed + out->generated) {
    return false;
  }
  return true;
}

void KvPageMessage::AppendTo(WireWriter& w) const {
  w.SignedVarint(request_id);
  w.SignedVarint(page_index);
  w.F32Array(data.data(), data.size());
}

bool KvPageMessage::Parse(WireReader& r, KvPageMessage* out) {
  return r.SignedVarint(&out->request_id) && r.SignedVarint(&out->page_index) &&
         out->page_index >= 0 && out->page_index < static_cast<int64_t>(kMaxTokens) &&
         r.F32Array(&out->data, kMaxKvPageFloats) && !out->data.empty();
}

void AppendAdapter(WireWriter& w, const LoraAdapter& adapter) {
  w.Str(adapter.name());
  w.SignedVarint(adapter.num_layers());
  w.SignedVarint(adapter.d_model());
  w.SignedVarint(adapter.rank());
  w.F32(adapter.scaling());
  w.Varint(adapter.targets().size());
  for (LoraTarget target : adapter.targets()) {
    w.U8(static_cast<uint8_t>(target));
    for (int layer = 0; layer < adapter.num_layers(); ++layer) {
      const LoraLayerWeights& weights = adapter.layer(target, layer);
      w.F32Array(weights.down.data(), static_cast<size_t>(weights.down.NumElements()));
      w.F32Array(weights.up.data(), static_cast<size_t>(weights.up.NumElements()));
    }
  }
  const bool has_head = adapter.task_head().has_value();
  w.U8(has_head ? 1 : 0);
  if (has_head) {
    const VisionTaskHead& head = adapter.task_head().value();
    w.U8(static_cast<uint8_t>(head.task));
    w.SignedVarint(head.num_options());
    w.F32Array(head.weight.data(), static_cast<size_t>(head.weight.NumElements()));
  }
  w.Varint(adapter.fused_domains().size());
  for (const std::string& domain : adapter.fused_domains()) {
    w.Str(domain);
  }
}

Result<LoraAdapter> ParseAdapter(WireReader& r) {
  const Status malformed = Status::InvalidArgument("malformed adapter message");
  std::string name;
  int64_t layers = 0;
  int64_t d = 0;
  int64_t rank = 0;
  float scaling = 1.0f;
  uint64_t num_targets = 0;
  if (!r.Str(&name) || !r.SignedVarint(&layers) || !r.SignedVarint(&d) ||
      !r.SignedVarint(&rank) || !r.F32(&scaling) || !r.Varint(&num_targets)) {
    return malformed;
  }
  if (layers <= 0 || layers > kMaxLayers || d <= 0 || d > kMaxDim || rank <= 0 || rank > d ||
      num_targets == 0 || num_targets > kAllLoraTargets.size()) {
    return Status::InvalidArgument("implausible adapter dimensions on the wire");
  }
  std::vector<LoraTarget> targets;
  std::vector<std::vector<std::pair<Tensor, Tensor>>> factors;
  for (uint64_t t = 0; t < num_targets; ++t) {
    uint8_t code = 0;
    if (!r.U8(&code) || code > static_cast<uint8_t>(LoraTarget::kWo)) {
      return malformed;
    }
    const LoraTarget target = static_cast<LoraTarget>(code);
    for (LoraTarget seen : targets) {
      if (seen == target) {
        return Status::InvalidArgument("duplicate adapter target on the wire");
      }
    }
    targets.push_back(target);
    std::vector<std::pair<Tensor, Tensor>> layer_factors;
    for (int64_t layer = 0; layer < layers; ++layer) {
      Tensor down;
      Tensor up;
      if (!ReadTensor(r, d, rank, &down) || !ReadTensor(r, rank, d, &up)) {
        return malformed;
      }
      layer_factors.emplace_back(std::move(down), std::move(up));
    }
    factors.push_back(std::move(layer_factors));
  }
  // Build through Random so the adapter's invariants are established in one
  // place, then overwrite the factors with the decoded ones.
  Rng scratch_rng(0);
  LoraAdapter adapter =
      LoraAdapter::Random(name, static_cast<int>(layers), d, rank, scratch_rng, 0.0f, targets);
  adapter.set_scaling(scaling);
  for (size_t t = 0; t < targets.size(); ++t) {
    for (int64_t layer = 0; layer < layers; ++layer) {
      LoraLayerWeights& weights = adapter.layer(targets[t], static_cast<int>(layer));
      weights.down = std::move(factors[t][static_cast<size_t>(layer)].first);
      weights.up = std::move(factors[t][static_cast<size_t>(layer)].second);
    }
  }
  uint8_t has_head = 0;
  if (!r.U8(&has_head)) {
    return malformed;
  }
  if (has_head != 0) {
    uint8_t task_code = 0;
    int64_t options = 0;
    if (!r.U8(&task_code) || task_code >= static_cast<uint8_t>(kNumVisionTasks) ||
        !r.SignedVarint(&options) || options <= 0 || options > kMaxDim) {
      return malformed;
    }
    VisionTaskHead head;
    head.task = static_cast<VisionTask>(task_code);
    if (!ReadTensor(r, d, options, &head.weight)) {
      return malformed;
    }
    adapter.SetTaskHead(std::move(head));
  }
  uint64_t num_domains = 0;
  if (!r.Varint(&num_domains) || num_domains > 1024) {
    return malformed;
  }
  for (uint64_t i = 0; i < num_domains; ++i) {
    std::string domain;
    if (!r.Str(&domain)) {
      return malformed;
    }
    adapter.AddFusedDomain(std::move(domain));
  }
  return adapter;
}

}  // namespace net
}  // namespace vlora
