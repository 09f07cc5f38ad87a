// servebench workloads: which cluster serves each one, how many requests a
// run sends, and request i of a phase, generated on demand from the seed.
//
// Nothing here holds a request list in memory: a RequestSource keeps the
// per-session or per-arrival schedule (a few scalars per entry) and rebuilds
// request i's prompt whenever it is asked, so the benchmark's own state stays
// small beside the program it measures and a result can be re-checked later
// against the exact request that produced it.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster_server.h"
#include "src/workload/request.h"

namespace servebench {

enum class WorkloadKind { kVqaSessions, kVideoAnalytics, kControlPlane };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kVqaSessions;
  std::string name;
  vlora::ModelConfig config;
  vlora::ClusterOptions cluster;
  int num_adapters = 8;
  double skewness = 0.6;  // share of requests for the hottest adapter
  bool task_heads = false;
  bool open_loop = false;
  // Closed loop: requests in flight, and how many requests a slot sends back
  // to back (one session) before it starts the next chain.
  int window = 16;
  int turns_per_chain = 1;
  // A run's timed phase holds seconds x nominal_rps requests. For the closed
  // loops this is about their capacity on a 4-core x86 host, so the phase
  // lasts about --seconds while the request count stays fixed; for the open
  // loop it is the offered rate.
  double nominal_rps = 100.0;
  int num_streams = 0;  // open loop: camera streams
};

// Every adapter's rank, and the answer options of its task head. The rank
// equals no model dimension, so a GEMM with n or k equal to it is LoRA work.
inline constexpr int64_t kAdapterRank = 8;
inline constexpr int kHeadOptions = 8;

// Returns false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

// The adapters every replica serves (deterministic, independent of the seed).
std::vector<vlora::LoraAdapter> MakeAdapters(const WorkloadSpec& spec);

class RequestSource {
 public:
  // `count` requests drawn from `seed`; closed loops round it up to whole
  // chains. `image_salt` changes only the visual tokens: two sources that
  // differ in it send the same schedule, adapters and lengths but share no
  // image, so neither finds KV prefixes the other cached.
  RequestSource(const WorkloadSpec& spec, uint64_t seed, int64_t count, uint64_t image_salt = 0);

  int64_t size() const { return count_; }
  // Request `index` of the phase; the caller sets EngineRequest::id.
  vlora::EngineRequest Make(int64_t index) const;
  // Open loop: due time of request `index` from the phase start. 0 for the
  // closed loops, which send on completions.
  double DueMs(int64_t index) const;
  // Request::slo_ms of the request; 0 means best effort.
  double SloMs(int64_t index) const;
  // Expected shares of requests per adapter, for ClusterServer::PlaceAdapters.
  std::vector<double> AdapterShares() const;

 private:
  struct Session {
    int adapter = 0;
    int64_t image_id = 0;
  };

  const WorkloadSpec& spec_;
  uint64_t seed_;
  uint64_t image_salt_;
  int64_t count_ = 0;
  std::vector<Session> sessions_;         // vqa_sessions
  std::vector<vlora::Request> arrivals_;  // video_analytics
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
