#include "servebench/workloads.h"

#include <algorithm>

#include "src/common/rng.h"
#include "src/engine/vision.h"
#include "src/workload/trace_gen.h"

namespace servebench {
namespace {

using vlora::EngineRequest;
using vlora::Rng;

constexpr int kTurnsPerSession = 4;
constexpr int64_t kVideoFrames = 6;
constexpr double kVideoShare = 2.0 / 3.0;
constexpr uint64_t kAdapterSeed = 11;
// The replicas' stall detector quarantines a replica whose heartbeat has not
// moved for this long while it holds work. At the 250 ms default, 3 of 201
// video_analytics requests failed in one run on a busy 4-core host: a slow
// batched prefill can get both replicas quarantined at once, and Submit then
// finds no live replica.
constexpr double kStallQuarantineMs = 2000.0;

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c = 0) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull) * 0xBF58476D1CE4E5B9ull ^
               (c + 0x94D049BB133111EBull) * 0xD6E8FEB86659FD93ull;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return x;
}

// Text tokens avoid ids 0 and 1 (pad / the engine's default eos).
std::vector<int32_t> TextTokens(Rng& rng, int64_t count, int64_t vocab) {
  std::vector<int32_t> tokens(static_cast<size_t>(count));
  for (int32_t& token : tokens) {
    token = static_cast<int32_t>(rng.NextInt(2, vocab - 1));
  }
  return tokens;
}

// The hottest adapter takes `skewness` of the requests; the rest follow a
// Zipf tail, as in src/workload/trace_gen.cc.
int PickAdapter(Rng& rng, int num_adapters, double skewness) {
  if (num_adapters == 1 || rng.NextDouble() < skewness) {
    return 0;
  }
  return 1 + static_cast<int>(rng.NextZipf(num_adapters - 1, 1.0));
}

WorkloadSpec VqaSessions() {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kVqaSessions;
  spec.name = "vqa_sessions";
  spec.config = vlora::SmallConfig();
  spec.config.visual_tokens_per_image = 64;
  spec.cluster.num_replicas = 2;
  spec.cluster.policy = vlora::RoutePolicy::kAdapterAffinity;
  spec.cluster.server.max_batch_size = 8;
  spec.num_adapters = 8;
  spec.skewness = 0.6;
  spec.window = 16;
  spec.turns_per_chain = kTurnsPerSession;
  spec.nominal_rps = 150.0;
  return spec;
}

// Long video prompts at a light load. The host freezes a vCPU for up to
// ~10 ms at a time; with 32-token frames (a ~35 ms prefill at 8-16 req/s)
// those freezes and the queues behind them set the p95, which moved 34-67 ms
// between back-to-back runs. A 64-token frame makes the prefill ~100 ms, so a
// freeze is a small part of it, and 5 req/s (about a fifth of capacity)
// keeps queues short. Interleaved with the 32-token design on the same host,
// p95 spread 12% against 43% over five runs.
WorkloadSpec VideoAnalytics() {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kVideoAnalytics;
  spec.name = "video_analytics";
  spec.config = vlora::SmallConfig();
  spec.config.visual_tokens_per_image = 64;
  spec.cluster.num_replicas = 2;
  spec.cluster.policy = vlora::RoutePolicy::kAdapterAffinity;
  spec.cluster.server.max_batch_size = 8;
  spec.num_adapters = 4;
  spec.skewness = 0.8;
  spec.task_heads = true;
  spec.open_loop = true;
  spec.nominal_rps = 5.0;
  spec.num_streams = 40;
  return spec;
}

WorkloadSpec ControlPlane() {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kControlPlane;
  spec.name = "control_plane";
  spec.config = vlora::TinyConfig();
  spec.cluster.num_replicas = 2;
  spec.cluster.policy = vlora::RoutePolicy::kAdapterAffinity;
  spec.cluster.backend = vlora::ReplicaBackend::kProcess;
  // Loopback TCP keeps the benchmark's files inside its checkout (the Unix
  // transport binds its sockets under /tmp).
  spec.cluster.process.transport = vlora::net::Transport::kTcp;
  spec.num_adapters = 4;
  spec.skewness = 0.6;
  spec.window = 32;
  spec.nominal_rps = 12000.0;
  return spec;
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "vqa_sessions") {
    *spec = VqaSessions();
  } else if (name == "video_analytics") {
    *spec = VideoAnalytics();
  } else if (name == "control_plane") {
    *spec = ControlPlane();
  } else {
    return false;
  }
  spec->cluster.recovery.stall_quarantine_ms = kStallQuarantineMs;
  return true;
}

std::vector<vlora::LoraAdapter> MakeAdapters(const WorkloadSpec& spec) {
  Rng rng(kAdapterSeed);
  std::vector<vlora::LoraAdapter> adapters;
  for (int i = 0; i < spec.num_adapters; ++i) {
    vlora::LoraAdapter adapter =
        vlora::LoraAdapter::Random(spec.name + "-" + std::to_string(i), spec.config.num_layers,
                                   spec.config.d_model, kAdapterRank, rng);
    if (spec.task_heads) {
      vlora::VisionTaskHead head;
      head.task = vlora::VisionTask::kObjectDetection;
      head.weight = vlora::Tensor::Random(vlora::Shape(spec.config.d_model, kHeadOptions),
                                          rng, 0.3f);
      adapter.SetTaskHead(std::move(head));
    }
    adapters.push_back(std::move(adapter));
  }
  return adapters;
}

RequestSource::RequestSource(const WorkloadSpec& spec, uint64_t seed, int64_t count,
                             uint64_t image_salt)
    : spec_(spec), seed_(seed), image_salt_(image_salt) {
  count = std::max<int64_t>(count, 1);
  switch (spec.kind) {
    case WorkloadKind::kVqaSessions: {
      // Session adapters come from the visual-retrieval trace generator; a
      // gamma renewal process gives a random count, so ask for plenty.
      const int64_t sessions = (count + kTurnsPerSession - 1) / kTurnsPerSession;
      vlora::TraceOptions options;
      options.app = vlora::AppKind::kVisualRetrieval;
      options.num_adapters = spec.num_adapters;
      options.skewness = spec.skewness;
      options.seed = seed;
      options.duration_s = 1.0;
      options.rate_rps = 2.0 * static_cast<double>(sessions) + 64.0;
      std::vector<vlora::Request> trace = vlora::GenerateTrace(options);
      while (static_cast<int64_t>(trace.size()) < sessions) {
        options.rate_rps *= 2.0;
        trace = vlora::GenerateTrace(options);
      }
      sessions_.resize(static_cast<size_t>(sessions));
      for (int64_t s = 0; s < sessions; ++s) {
        sessions_[static_cast<size_t>(s)].adapter = trace[static_cast<size_t>(s)].adapter_id;
        sessions_[static_cast<size_t>(s)].image_id =
            static_cast<int64_t>(Mix(seed, static_cast<uint64_t>(s), image_salt) >> 2);
      }
      count_ = sessions * kTurnsPerSession;
      break;
    }
    case WorkloadKind::kVideoAnalytics: {
      vlora::TraceOptions options;
      options.app = vlora::AppKind::kVideoAnalytics;
      options.rate_rps = spec.nominal_rps;
      options.duration_s = static_cast<double>(count) / spec.nominal_rps;
      options.num_streams = spec.num_streams;
      options.num_adapters = spec.num_adapters;
      options.skewness = spec.skewness;
      options.seed = seed;
      options.visual_tokens_per_image = spec.config.visual_tokens_per_image;
      arrivals_ = vlora::GenerateTrace(options);
      // Each stream sends once every num_streams / rate seconds (8 s), so a
      // schedule a few requests long can come out empty; lengthen it until
      // it holds at least one arrival.
      while (arrivals_.empty()) {
        options.duration_s *= 2.0;
        arrivals_ = vlora::GenerateTrace(options);
      }
      // Two video-understanding requests for every detection. With the
      // generator's even split the median latency sits between the two
      // service-time modes and jumps from one to the other between seeds.
      Rng mix(Mix(seed, 4));
      for (vlora::Request& arrival : arrivals_) {
        if (mix.NextDouble() < kVideoShare) {
          arrival.task = vlora::VisionTask::kVideoClassification;
          arrival.input_tokens = kVideoFrames * options.visual_tokens_per_image;
        } else {
          arrival.task = vlora::VisionTask::kObjectDetection;
          arrival.input_tokens = options.visual_tokens_per_image + mix.NextInt(16, 64);
        }
      }
      count_ = static_cast<int64_t>(arrivals_.size());
      break;
    }
    case WorkloadKind::kControlPlane:
      count_ = count;
      break;
  }
}

EngineRequest RequestSource::Make(int64_t index) const {
  const int64_t vocab = spec_.config.vocab_size;
  EngineRequest request;
  request.eos_token = -1;  // answers run to max_new_tokens
  switch (spec_.kind) {
    case WorkloadKind::kVqaSessions: {
      // One image, then kTurnsPerSession questions about it: every turn's
      // prompt starts with the same visual tokens, so later turns can reuse
      // the image's KV blocks on the replica that served the first.
      const Session& session = sessions_[static_cast<size_t>(index / kTurnsPerSession)];
      Rng rng(Mix(seed_, static_cast<uint64_t>(index), 1));
      const vlora::VisionEncoder encoder(spec_.config);
      request.prompt_tokens =
          encoder.BuildPrompt(session.image_id, TextTokens(rng, rng.NextInt(6, 20), vocab));
      request.adapter_id = session.adapter;
      request.max_new_tokens = static_cast<int>(rng.NextInt(16, 32));
      break;
    }
    case WorkloadKind::kVideoAnalytics: {
      const vlora::Request& arrival = arrivals_[static_cast<size_t>(index)];
      Rng rng(Mix(seed_, static_cast<uint64_t>(index), 2));
      const vlora::VisionEncoder encoder(spec_.config);
      const int64_t frame_tokens = spec_.config.visual_tokens_per_image;
      // Video understanding sends 6 frames plus a short instruction;
      // detection one frame plus the rest of the trace's input length as text.
      const int64_t frames =
          arrival.task == vlora::VisionTask::kVideoClassification ? kVideoFrames : 1;
      const int64_t text = std::max<int64_t>(8, arrival.input_tokens - frames * frame_tokens);
      std::vector<int64_t> frame_ids;
      for (int64_t f = 0; f < frames; ++f) {
        frame_ids.push_back(static_cast<int64_t>(
            Mix(seed_ ^ image_salt_, static_cast<uint64_t>(index), 16 + static_cast<uint64_t>(f)) >>
            2));
      }
      request.prompt_tokens = encoder.BuildVideoPrompt(frame_ids, TextTokens(rng, text, vocab));
      request.adapter_id = arrival.adapter_id;
      request.use_task_head = true;
      request.max_new_tokens = 1;
      break;
    }
    case WorkloadKind::kControlPlane: {
      Rng rng(Mix(seed_, static_cast<uint64_t>(index), 3));
      request.prompt_tokens = TextTokens(rng, 4, vocab);
      request.adapter_id = PickAdapter(rng, spec_.num_adapters, spec_.skewness);
      request.max_new_tokens = 1;
      break;
    }
  }
  return request;
}

double RequestSource::DueMs(int64_t index) const {
  if (spec_.kind != WorkloadKind::kVideoAnalytics) {
    return 0.0;
  }
  return arrivals_[static_cast<size_t>(index)].arrival_s * 1e3;
}

double RequestSource::SloMs(int64_t index) const {
  if (spec_.kind != WorkloadKind::kVideoAnalytics) {
    return 0.0;
  }
  return arrivals_[static_cast<size_t>(index)].slo_ms;
}

std::vector<double> RequestSource::AdapterShares() const {
  std::vector<double> shares(static_cast<size_t>(spec_.num_adapters), 0.0);
  switch (spec_.kind) {
    case WorkloadKind::kVqaSessions:
      for (const Session& session : sessions_) {
        shares[static_cast<size_t>(session.adapter)] += 1.0 / static_cast<double>(sessions_.size());
      }
      return shares;
    case WorkloadKind::kVideoAnalytics:
      return vlora::AdapterShares(arrivals_, spec_.num_adapters);
    case WorkloadKind::kControlPlane: {
      const int64_t sample = std::min<int64_t>(count_, 4096);
      for (int64_t i = 0; i < sample; ++i) {
        shares[static_cast<size_t>(Make(i).adapter_id)] += 1.0 / static_cast<double>(sample);
      }
      return shares;
    }
  }
  return shares;
}

}  // namespace servebench
