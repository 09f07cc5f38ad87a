// servebench per-layer measurements: what the traced run derives from the
// tracer's events, and the standalone probes that time one module's public
// functions outside the cluster (codec, engine, GEMMs, mode switch). Also the
// host probe and the process memory reader every run uses.

#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "src/common/trace.h"
#include "src/engine/engine.h"

namespace servebench {

// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

// Milliseconds a fixed integer/float loop takes on this host (median of 5).
// Printed at the start and end of every run so host drift can be told apart
// from a regression.
double HostProbeMs();

// VmHWM of a process in MB, or 0 when /proc/<pid>/status is unreadable.
double VmHwmMb(pid_t pid);

using GemmShape = std::tuple<int64_t, int64_t, int64_t>;  // m, n, k

// Everything the traced run reads from the event stream.
struct TraceFacts {
  std::vector<double> route_us;         // RequestAdmitted -> first Enqueued
  std::vector<double> queue_wait_ms;    // Enqueued -> BatchStepBegin of its prefill step
  std::vector<double> roundtrip_ms;     // Enqueued -> Completed
  std::vector<double> step_ms;          // BatchStepBegin -> BatchStepEnd
  std::vector<double> prefill_step_ms;  // steps holding a PrefillDone
  std::vector<double> decode_step_ms;   // steps holding none
  std::vector<double> batch_sizes;
  int64_t step_dispatches = 0;  // kernel dispatches inside a batch step
  double base_flop = 0.0;
  double lora_flop = 0.0;
  double bytes = 0.0;  // computed from the shapes (A, B and C once each)
  std::map<GemmShape, int64_t> shapes;
};

// `lora_rank` classifies a dispatch as LoRA work when its n or k equals it.
TraceFacts AnalyzeTrace(const std::vector<vlora::trace::TraceEvent>& events, int64_t lora_rank);

struct CodecProbe {
  double request_bytes = 0.0;   // mean Request frame size
  double result_bytes = 0.0;    // mean Result frame size
  double us_per_request = 0.0;  // encode + decode of one request and its result
  bool round_trip_ok = true;
};

// Runs each request and result through EncodeMessageFrame, DecodeEnvelope
// and DecodeAs, timed, and checks the decoded copy matches.
CodecProbe ProbeCodec(const std::vector<vlora::EngineRequest>& requests,
                      const std::vector<vlora::EngineResult>& results);

struct SoloProbe {
  double prefill_ms_per_token = 0.0;
  double decode_step_ms = 0.0;  // 0 unless `decode`
  int64_t prefill_samples = 0;
  int64_t decode_samples = 0;
};

// A standalone engine with every adapter registered, unmerged: `batch`
// distinct prompts of `prompt_len` tokens prefilled in one Step, then (with
// `decode`) the decode steps that follow.
SoloProbe ProbeSoloEngine(const vlora::ModelConfig& config, const vlora::EngineOptions& options,
                          const std::vector<const vlora::LoraAdapter*>& adapters,
                          int64_t prompt_len, int64_t batch, bool decode);

struct GemmProbe {
  double gflops = 0.0;         // achieved rate over the replayed shape mix
  double est_total_ms = 0.0;   // every traced dispatch, extrapolated
  int replayed_shapes = 0;
};

// Times AtmmDispatcher::Execute on the most expensive traced shapes (those
// holding 90% of the FLOPs, at most 24) and extrapolates to all of them.
GemmProbe ReplayGemms(vlora::AtmmDispatcher& atmm, const std::map<GemmShape, int64_t>& shapes);

// Median time of kSwitchProbeSamples InferenceEngine::SetMode calls,
// alternating merged (cycling the engine's adapters) and unmerged.
inline constexpr int kSwitchProbeSamples = 32;
double ProbeSwitchMs(vlora::InferenceEngine& engine);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
