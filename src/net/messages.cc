#include "src/net/messages.h"

#include <utility>

#include "src/common/vision_task.h"

namespace vlora {
namespace net {

namespace {

// The payload header ahead of every body (wire.h).
struct Header {
  uint16_t magic = kWireMagic;
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
};

template <typename Io, typename H>
bool HeaderFields(Io& io, H& header) {
  return io.Fixed(header.magic) && io.Fixed(header.version) && io.Fixed(header.type);
}

// An adapter as it crosses the wire. A LoraAdapter is built whole from its
// factors, so decoding fills this first and then moves them in. Tensors share
// storage, so filling it from an adapter copies no weights.
struct WireAdapter {
  std::string name;
  int64_t num_layers = 0;
  int64_t d_model = 0;
  int64_t rank = 0;
  float scaling = 1.0f;
  std::vector<LoraTargetWeights> targets;
  bool has_head = false;
  VisionTaskHead head;
  std::vector<std::string> fused_domains;
};

template <typename Io, typename A>
bool AdapterFields(Io& io, A& a) {
  if (!(io.Text(a.name) && io.Int(a.num_layers, 1, kMaxLayers) &&
        io.Int(a.d_model, 1, kMaxDim) && io.Int(a.rank, 1, a.d_model) && io.Fixed(a.scaling))) {
    return false;
  }
  unsigned listed = 0;  // one bit per target code already on the wire
  auto target_fields = [&](auto& target) {
    if (!io.Enum(target.target, LoraTarget::kWo)) {
      return false;
    }
    // A target may appear once.
    const unsigned bit = 1u << static_cast<unsigned>(target.target);
    if (!io.Require((listed & bit) == 0)) {
      return false;
    }
    listed |= bit;
    if constexpr (Io::kDecoding) {
      target.layers.resize(static_cast<size_t>(a.num_layers));
    }
    for (auto& layer : target.layers) {
      if (!MatrixFields(io, layer.down, a.d_model, a.rank) ||
          !MatrixFields(io, layer.up, a.rank, a.d_model)) {
        return false;
      }
    }
    return true;
  };
  int64_t options = a.has_head ? a.head.num_options() : 0;
  constexpr auto kLastTask = static_cast<VisionTask>(kNumVisionTasks - 1);
  return io.Repeated(a.targets, kAllLoraTargets.size(), target_fields) &&
         io.Require(!a.targets.empty()) && io.Bool(a.has_head) &&
         (!a.has_head ||
          (io.Enum(a.head.task, kLastTask) && io.Int(options, 1, kMaxDim) &&
           MatrixFields(io, a.head.weight, a.d_model, options))) &&
         io.Repeated(a.fused_domains, 1024, [&io](auto& domain) { return io.Text(domain); });
}

}  // namespace

std::string EncodeFrame(MessageType type, const std::string& body) {
  WireWriter writer;
  Header header;
  header.type = static_cast<uint8_t>(type);
  HeaderFields(writer, header);
  std::string payload = writer.Take();
  payload.append(body);
  return FramePayload(payload);
}

Result<Envelope> DecodeEnvelope(const std::string& payload) {
  WireReader reader(payload);
  Header header;
  if (!HeaderFields(reader, header)) {
    return Status::InvalidArgument("payload shorter than the message header");
  }
  if (header.magic != kWireMagic) {
    return Status::InvalidArgument("bad wire magic");
  }
  if (header.version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(header.version));
  }
  if (header.type < static_cast<uint8_t>(MessageType::kHello) ||
      header.type > static_cast<uint8_t>(MessageType::kKvPage)) {
    return Status::InvalidArgument("unknown message type " + std::to_string(header.type));
  }
  Envelope envelope;
  envelope.type = static_cast<MessageType>(header.type);
  envelope.body = payload.substr(payload.size() - reader.remaining());
  return envelope;
}

void AppendAdapter(WireWriter& w, const LoraAdapter& adapter) {
  WireAdapter a;
  a.name = adapter.name();
  a.num_layers = adapter.num_layers();
  a.d_model = adapter.d_model();
  a.rank = adapter.rank();
  a.scaling = adapter.scaling();
  for (LoraTarget target : adapter.targets()) {
    LoraTargetWeights& wire_target = a.targets.emplace_back();
    wire_target.target = target;
    for (int layer = 0; layer < adapter.num_layers(); ++layer) {
      wire_target.layers.push_back(adapter.layer(target, layer));
    }
  }
  a.has_head = adapter.task_head().has_value();
  if (a.has_head) {
    a.head = adapter.task_head().value();
  }
  a.fused_domains = adapter.fused_domains();
  AdapterFields(w, std::as_const(a));
}

Result<LoraAdapter> ParseAdapter(WireReader& r) {
  WireAdapter a;
  if (!AdapterFields(r, a)) {
    return Status::InvalidArgument("malformed adapter message");
  }
  // Decoding bounded every dimension and shaped every factor, and listed each
  // target once, so the factory's checks hold.
  LoraAdapter adapter =
      LoraAdapter::FromFactors(std::move(a.name), static_cast<int>(a.num_layers), a.d_model,
                               a.rank, std::move(a.targets));
  adapter.set_scaling(a.scaling);
  if (a.has_head) {
    adapter.SetTaskHead(std::move(a.head));
  }
  for (std::string& domain : a.fused_domains) {
    adapter.AddFusedDomain(std::move(domain));
  }
  return adapter;
}

}  // namespace net
}  // namespace vlora
