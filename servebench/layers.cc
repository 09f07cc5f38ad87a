#include "servebench/layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/net/messages.h"

namespace servebench {

using vlora::Stopwatch;
using vlora::trace::TraceEvent;
using vlora::trace::TraceEventKind;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double HostProbeMs() {
  // A register-only loop and a pass over a buffer larger than a core's L2,
  // so the probe sees both a slower core and contended memory.
  constexpr size_t kBufferFloats = 8u << 20;  // 32 MB
  std::vector<float> buffer(kBufferFloats, 1.0f);
  std::vector<double> runs;
  uint64_t x = 88172645463325252ull;
  double acc = 0.0;
  for (int run = 0; run < 5; ++run) {
    Stopwatch watch;
    for (int i = 0; i < 1'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 1023u) * 1e-3;
    }
    for (size_t i = 0; i < kBufferFloats; i += 16) {
      buffer[i] += static_cast<float>(x & 7u);
      acc += buffer[i];
    }
    runs.push_back(watch.ElapsedMillis());
  }
  // Printing the accumulator keeps the loops from being folded away.
  std::fprintf(stderr, "servebench: host probe checksum %.3f\n", acc);
  return Percentile(runs, 50.0);
}

double VmHwmMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

TraceFacts AnalyzeTrace(const std::vector<TraceEvent>& events, int64_t lora_rank) {
  struct Enqueue {
    double ms = 0.0;
    int replica = -1;
  };
  struct OpenStep {
    double begin_ms = 0.0;
    bool has_prefill = false;
  };
  TraceFacts facts;
  std::unordered_map<int64_t, double> admitted;
  std::unordered_map<int64_t, Enqueue> enqueued;
  std::unordered_map<int64_t, bool> prefilled;
  std::unordered_map<int, OpenStep> open;
  for (const TraceEvent& event : events) {
    switch (event.kind) {
      case TraceEventKind::kRequestAdmitted:
        admitted.emplace(event.request_id, event.when_ms);
        break;
      case TraceEventKind::kEnqueued:
        if (enqueued.emplace(event.request_id, Enqueue{event.when_ms, event.replica}).second) {
          auto it = admitted.find(event.request_id);
          if (it != admitted.end()) {
            facts.route_us.push_back((event.when_ms - it->second) * 1e3);
          }
        }
        break;
      case TraceEventKind::kBatchStepBegin:
        open[event.replica] = OpenStep{event.when_ms, false};
        facts.batch_sizes.push_back(static_cast<double>(event.batch_size()));
        break;
      case TraceEventKind::kPrefillDone: {
        auto step = open.find(event.replica);
        if (step == open.end()) {
          break;  // process backend: stamped by the master's reader, outside any step
        }
        step->second.has_prefill = true;
        auto it = enqueued.find(event.request_id);
        if (it != enqueued.end() && it->second.replica == event.replica &&
            prefilled.emplace(event.request_id, true).second) {
          facts.queue_wait_ms.push_back(step->second.begin_ms - it->second.ms);
        }
        break;
      }
      case TraceEventKind::kKernelDispatch: {
        const double flop = 2.0 * static_cast<double>(event.m) * static_cast<double>(event.n) *
                            static_cast<double>(event.k);
        const bool lora = event.n == lora_rank || event.k == lora_rank;
        (lora ? facts.lora_flop : facts.base_flop) += flop;
        facts.bytes += 4.0 * static_cast<double>(event.m * event.k + event.k * event.n +
                                                 event.m * event.n);
        if (open.contains(event.replica)) {
          ++facts.step_dispatches;
        }
        ++facts.shapes[GemmShape{event.m, event.n, event.k}];
        break;
      }
      case TraceEventKind::kBatchStepEnd: {
        auto step = open.find(event.replica);
        if (step == open.end()) {
          break;
        }
        const double ms = event.when_ms - step->second.begin_ms;
        facts.step_ms.push_back(ms);
        (step->second.has_prefill ? facts.prefill_step_ms : facts.decode_step_ms).push_back(ms);
        open.erase(step);
        break;
      }
      case TraceEventKind::kCompleted: {
        auto it = enqueued.find(event.request_id);
        if (it != enqueued.end()) {
          facts.roundtrip_ms.push_back(event.when_ms - it->second.ms);
        }
        break;
      }
      default:
        break;
    }
  }
  return facts;
}

CodecProbe ProbeCodec(const std::vector<vlora::EngineRequest>& requests,
                      const std::vector<vlora::EngineResult>& results) {
  namespace net = vlora::net;
  CodecProbe probe;
  if (requests.empty()) {
    return probe;
  }
  // A frame is a 4-byte length prefix followed by the payload DecodeEnvelope
  // takes.
  constexpr size_t kPrefix = sizeof(uint32_t);
  constexpr int kPasses = 20;
  double request_bytes = 0.0;
  double result_bytes = 0.0;
  Stopwatch watch;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < requests.size(); ++i) {
      net::RequestMessage request;
      request.request = requests[i];
      const std::string frame = net::EncodeMessageFrame(request);
      vlora::Result<net::Envelope> envelope = net::DecodeEnvelope(frame.substr(kPrefix));
      vlora::Result<net::RequestMessage> decoded =
          envelope.ok() ? net::DecodeAs<net::RequestMessage>(envelope.value())
                        : vlora::Result<net::RequestMessage>(envelope.status());
      probe.round_trip_ok &= decoded.ok() && decoded.value().request.id == requests[i].id &&
                             decoded.value().request.prompt_tokens == requests[i].prompt_tokens;

      net::ResultMessage result;
      result.result = results[i];
      const std::string result_frame = net::EncodeMessageFrame(result);
      vlora::Result<net::Envelope> result_envelope =
          net::DecodeEnvelope(result_frame.substr(kPrefix));
      vlora::Result<net::ResultMessage> decoded_result =
          result_envelope.ok() ? net::DecodeAs<net::ResultMessage>(result_envelope.value())
                               : vlora::Result<net::ResultMessage>(result_envelope.status());
      probe.round_trip_ok &= decoded_result.ok() &&
                             decoded_result.value().result.output_tokens ==
                                 results[i].output_tokens &&
                             decoded_result.value().result.head_option == results[i].head_option;
      if (pass == 0) {
        request_bytes += static_cast<double>(frame.size());
        result_bytes += static_cast<double>(result_frame.size());
      }
    }
  }
  const auto n = static_cast<double>(requests.size());
  probe.us_per_request = watch.ElapsedMicros() / (n * kPasses);
  probe.request_bytes = request_bytes / n;
  probe.result_bytes = result_bytes / n;
  return probe;
}

SoloProbe ProbeSoloEngine(const vlora::ModelConfig& config, const vlora::EngineOptions& options,
                          const std::vector<const vlora::LoraAdapter*>& adapters,
                          int64_t prompt_len, int64_t batch, bool decode) {
  constexpr int kReps = 5;
  constexpr int kDecodeSteps = 8;
  vlora::InferenceEngine engine(config, options);
  for (const vlora::LoraAdapter* adapter : adapters) {
    engine.RegisterAdapter(adapter);
  }
  vlora::Rng rng(7);
  std::vector<double> prefill_ms;
  std::vector<double> decode_ms;
  int64_t next_id = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int64_t b = 0; b < batch; ++b) {
      vlora::EngineRequest request;
      request.id = next_id++;
      for (int64_t t = 0; t < prompt_len; ++t) {
        request.prompt_tokens.push_back(
            static_cast<int32_t>(rng.NextInt(2, config.vocab_size - 1)));
      }
      request.adapter_id =
          adapters.empty() ? -1 : static_cast<int>(b % static_cast<int64_t>(adapters.size()));
      request.max_new_tokens = decode ? kDecodeSteps + 1 : 1;
      request.eos_token = -1;
      engine.Submit(std::move(request));
    }
    Stopwatch watch;
    (void)engine.Step();
    prefill_ms.push_back(watch.ElapsedMillis());
    while (engine.HasWork()) {
      Stopwatch step;
      (void)engine.Step();
      decode_ms.push_back(step.ElapsedMillis());
    }
  }
  SoloProbe probe;
  probe.prefill_ms_per_token =
      Percentile(prefill_ms, 50.0) / static_cast<double>(std::max<int64_t>(1, batch * prompt_len));
  probe.prefill_samples = static_cast<int64_t>(prefill_ms.size());
  if (decode) {
    probe.decode_step_ms = Percentile(decode_ms, 50.0);
    probe.decode_samples = static_cast<int64_t>(decode_ms.size());
  }
  return probe;
}

GemmProbe ReplayGemms(vlora::AtmmDispatcher& atmm, const std::map<GemmShape, int64_t>& shapes) {
  constexpr double kCoverage = 0.9;
  constexpr size_t kMaxShapes = 24;
  constexpr double kMinTimedMs = 2.0;
  struct Entry {
    GemmShape shape;
    int64_t count;
    double flop;  // per call
  };
  std::vector<Entry> entries;
  double total_flop = 0.0;
  for (const auto& [shape, count] : shapes) {
    const auto [m, n, k] = shape;
    const double flop =
        2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
    entries.push_back({shape, count, flop});
    total_flop += flop * static_cast<double>(count);
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.flop * static_cast<double>(a.count) > b.flop * static_cast<double>(b.count);
  });
  GemmProbe probe;
  if (total_flop <= 0.0) {
    return probe;
  }
  vlora::Rng rng(5);
  double replay_flop = 0.0;
  double replay_ms = 0.0;
  for (const Entry& entry : entries) {
    if (replay_flop >= kCoverage * total_flop ||
        static_cast<size_t>(probe.replayed_shapes) >= kMaxShapes) {
      break;
    }
    const auto [m, n, k] = entry.shape;
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
    for (float& v : a) {
      v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    }
    for (float& v : b) {
      v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    }
    atmm.Execute(a.data(), b.data(), c.data(), m, n, k);  // warm caches and packing
    int64_t calls = 0;
    Stopwatch watch;
    while (calls < 3 || watch.ElapsedMillis() < kMinTimedMs) {
      atmm.Execute(a.data(), b.data(), c.data(), m, n, k);
      ++calls;
    }
    const double per_call_ms = watch.ElapsedMillis() / static_cast<double>(calls);
    replay_ms += per_call_ms * static_cast<double>(entry.count);
    replay_flop += entry.flop * static_cast<double>(entry.count);
    ++probe.replayed_shapes;
  }
  probe.gflops = replay_flop / (replay_ms * 1e6);
  probe.est_total_ms = replay_ms * total_flop / replay_flop;
  return probe;
}

double ProbeSwitchMs(vlora::InferenceEngine& engine) {
  std::vector<double> samples;
  if (engine.num_adapters() == 0) {
    return 0.0;
  }
  for (int i = 0; i < kSwitchProbeSamples / 2; ++i) {
    Stopwatch merge;
    engine.SetMode(vlora::InferMode::kMerged, i % engine.num_adapters());
    samples.push_back(merge.ElapsedMillis());
    Stopwatch unmerge;
    engine.SetMode(vlora::InferMode::kUnmerged);
    samples.push_back(unmerge.ElapsedMillis());
  }
  return Percentile(samples, 50.0);
}

}  // namespace servebench
