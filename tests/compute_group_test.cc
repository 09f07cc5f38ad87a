// Bitwise differential across compute-group sizes: an engine whose steps
// split over 2 or 3 threads must produce exactly the bytes of one thread —
// final hidden states, sampled tokens, task-head options and exported KV
// pages — in every inference mode, over ragged multi-sequence batches, with
// prefix reuse, across a disaggregated resume, and through a thread-backend
// cluster. Runs under every kernel variant (the `kernels` label) and under
// TSan and ASan (the `concurrency` label).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_server.h"
#include "src/engine/engine.h"

namespace vlora {
namespace {

// Everything a result carries that the engine computed.
struct Outcome {
  std::vector<int32_t> tokens;
  int head_option = -1;
  int64_t reused_tokens = 0;
  std::vector<float> final_hidden;
  std::vector<std::vector<float>> kv_pages;  // prefill_only handoffs
};
using Outcomes = std::map<int64_t, Outcome>;

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void Record(const EngineResult& result, Outcomes* out) {
  Outcome& outcome = (*out)[result.request_id];
  outcome.tokens = result.output_tokens;
  outcome.head_option = result.head_option;
  outcome.reused_tokens = result.reused_tokens;
  outcome.final_hidden = result.final_hidden;
  if (result.handle != nullptr) {
    outcome.final_hidden = result.handle->captured_hidden;
    for (const KvPage& page : result.handle->pages) {
      outcome.kv_pages.push_back(page.data);
    }
  }
}

void ExpectSameOutcomes(const Outcomes& reference, const Outcomes& actual,
                        const std::string& what) {
  ASSERT_EQ(reference.size(), actual.size()) << what;
  for (const auto& [id, expected] : reference) {
    const auto it = actual.find(id);
    ASSERT_NE(it, actual.end()) << what << " request " << id;
    const Outcome& got = it->second;
    EXPECT_EQ(got.tokens, expected.tokens) << what << " request " << id;
    EXPECT_EQ(got.head_option, expected.head_option) << what << " request " << id;
    EXPECT_EQ(got.reused_tokens, expected.reused_tokens) << what << " request " << id;
    EXPECT_FALSE(got.final_hidden.empty()) << what << " request " << id;
    EXPECT_TRUE(SameBytes(got.final_hidden, expected.final_hidden))
        << what << " request " << id;
    ASSERT_EQ(got.kv_pages.size(), expected.kv_pages.size()) << what << " request " << id;
    for (size_t p = 0; p < got.kv_pages.size(); ++p) {
      EXPECT_TRUE(SameBytes(got.kv_pages[p], expected.kv_pages[p]))
          << what << " request " << id << " page " << p;
    }
  }
}

class ComputeThreadsTest : public ::testing::Test {
 protected:
  static constexpr int kThreadCounts[] = {1, 2, 3};

  ComputeThreadsTest() : config_(TinyConfig()) {
    Rng rng(0x7A5C);
    // Three shapes of bypass: every target, query/value only, output only.
    adapters_.push_back(
        LoraAdapter::Random("all", config_.num_layers, config_.d_model, 4, rng, 0.1f));
    adapters_.push_back(LoraAdapter::Random("qv", config_.num_layers, config_.d_model, 8, rng,
                                            0.1f, {LoraTarget::kWq, LoraTarget::kWv}));
    adapters_.push_back(LoraAdapter::Random("o", config_.num_layers, config_.d_model, 2, rng,
                                            0.1f, {LoraTarget::kWo}));
    VisionTaskHead head;
    head.weight = Tensor::Random(Shape(config_.d_model, 5), rng, 1.0f);
    adapters_[0].SetTaskHead(head);
  }

  std::unique_ptr<InferenceEngine> MakeEngine(int threads) {
    EngineOptions options;
    options.kv_num_blocks = 256;
    options.compute_threads = threads;
    auto engine = std::make_unique<InferenceEngine>(config_, options);
    EXPECT_EQ(engine->compute_threads(), threads);
    for (const LoraAdapter& adapter : adapters_) {
      engine->RegisterAdapter(&adapter);
    }
    return engine;
  }

  EngineRequest Request(int64_t id, int adapter, int64_t prompt_len) const {
    EngineRequest request;
    request.id = id;
    request.adapter_id = adapter;
    request.max_new_tokens = 3;
    request.eos_token = -1;  // never sampled: every request decodes in full
    request.capture_final_hidden = true;
    Rng rng(0xD00Dull + static_cast<uint64_t>(id));
    for (int64_t t = 0; t < prompt_len; ++t) {
      request.prompt_tokens.push_back(
          static_cast<int32_t>(rng.NextInt(2, config_.vocab_size - 1)));
    }
    return request;
  }

  static void Drain(InferenceEngine& engine, Outcomes* out) {
    while (engine.HasWork()) {
      for (const EngineResult& result : engine.Step()) {
        Record(result, out);
      }
    }
  }

  ModelConfig config_;
  std::vector<LoraAdapter> adapters_;
};

// A ragged first step (67 + 150 + 3 + 91 = 311 rows: 2 chunks of 155-156
// rows, or 3 of 103-104, with sequence and segment edges inside chunks),
// then a step that prefills a 200-row prompt beside four decode rows, then
// decode steps — in each of the three inference modes.
TEST_F(ComputeThreadsTest, RaggedBatchesMatchOneThreadInEveryMode) {
  struct ModeCase {
    const char* name;
    InferMode mode;
    int merged;
    std::vector<int> adapters;  // five requests' adapters
  };
  const ModeCase cases[] = {
      {"merged", InferMode::kMerged, 0, {0, 0, 0, 0, 0}},
      {"unmerged", InferMode::kUnmerged, -1, {0, 1, -1, 2, 1}},
      {"mixture", InferMode::kMixture, 0, {0, 1, 2, -1, 2}},
  };
  const int64_t lengths[] = {67, 150, 3, 91, 200};
  for (const ModeCase& mode_case : cases) {
    Outcomes reference;
    for (int threads : kThreadCounts) {
      auto engine = MakeEngine(threads);
      engine->SetMode(mode_case.mode, mode_case.merged);
      std::vector<EngineRequest> requests;
      for (int64_t i = 0; i < 5; ++i) {
        requests.push_back(Request(i + 1, mode_case.adapters[static_cast<size_t>(i)],
                                   lengths[i]));
      }
      requests[0].use_task_head = true;  // adapter 0 carries the head
      requests[1].sampling.temperature = 0.8f;
      requests[1].sampling.seed = 99;
      Outcomes outcomes;
      for (size_t i = 0; i < 4; ++i) {
        engine->Submit(requests[i]);
      }
      for (const EngineResult& result : engine->Step()) {
        Record(result, &outcomes);
      }
      engine->Submit(requests[4]);
      Drain(*engine, &outcomes);
      if (threads == 1) {
        reference = outcomes;
        ASSERT_EQ(reference.size(), 5u);
        EXPECT_GE(reference[1].head_option, 0);
      } else {
        ExpectSameOutcomes(reference, outcomes,
                           std::string(mode_case.name) + " at " + std::to_string(threads) +
                               " threads");
      }
    }
  }
}

// A prompt that shares 11 KV blocks with an earlier one prefills only its
// 150-row tail, which still splits; the reuse and the bits must not move.
TEST_F(ComputeThreadsTest, PrefixReuseMatchesOneThread) {
  Outcomes reference;
  for (int threads : kThreadCounts) {
    auto engine = MakeEngine(threads);
    Outcomes outcomes;
    const EngineRequest first = Request(1, 1, 190);
    Record(engine->RunToCompletion(first), &outcomes);
    EngineRequest second = Request(2, 1, 150);
    second.prompt_tokens.insert(second.prompt_tokens.begin(), first.prompt_tokens.begin(),
                                first.prompt_tokens.begin() + 176);
    Record(engine->RunToCompletion(second), &outcomes);
    EXPECT_EQ(outcomes[2].reused_tokens, 176) << threads;
    if (threads == 1) {
      reference = outcomes;
    } else {
      ExpectSameOutcomes(reference, outcomes, "prefix reuse at " + std::to_string(threads));
    }
  }
}

// Disaggregated serving: a prefill engine exports a 260-row prefill's KV
// pages and a decode engine resumes from them; pages and outputs must be the
// bytes of one thread on both sides.
TEST_F(ComputeThreadsTest, DisaggregatedResumeMatchesOneThread) {
  Outcomes reference;
  for (int threads : kThreadCounts) {
    Outcomes outcomes;
    auto prefill = MakeEngine(threads);
    auto decode = MakeEngine(threads);
    prefill->SetMode(InferMode::kMixture, 1);
    decode->SetMode(InferMode::kMixture, 1);
    EngineRequest request = Request(7, 0, 260);
    request.prefill_only = true;
    const EngineResult handoff = prefill->RunToCompletion(request);
    ASSERT_NE(handoff.handle, nullptr);
    Record(handoff, &outcomes);
    request.id = 8;  // the decode side's outcome, keyed apart from the handoff
    request.prefill_only = false;
    request.resume_handle = handoff.handle;
    Record(decode->RunToCompletion(request), &outcomes);
    if (threads == 1) {
      reference = outcomes;
      ASSERT_FALSE(reference[7].kv_pages.empty());
    } else {
      ExpectSameOutcomes(reference, outcomes, "disaggregated at " + std::to_string(threads));
    }
  }
}

// A one-replica thread-backend cluster derives compute_threads from the
// host's CPUs. Fed one long request at a time, its replica makes the same
// Algorithm-1 decisions as a one-thread VloraServer fed the same way, so
// every result must be the server's to the byte.
TEST_F(ComputeThreadsTest, ClusterResultsMatchOneThreadServer) {
  if (ComputeThreadsPerReplica(1) < 2) {
    GTEST_SKIP() << "one allowed CPU: the replica's steps cannot split";
  }
  ClusterOptions options;
  options.num_replicas = 1;
  options.server.max_batch_size = 4;
  ClusterServer cluster(config_, options);
  VloraServer reference(config_, options.server);
  ASSERT_EQ(reference.engine().compute_threads(), 1);
  for (const LoraAdapter& adapter : adapters_) {
    cluster.AddAdapter(adapter);
    reference.AddAdapter(std::make_unique<LoraAdapter>(adapter));
  }
  cluster.PlaceAdapters({0.5, 0.3, 0.2});
  for (int adapter = 0; adapter < 3; ++adapter) {
    reference.PrewarmAdapter(adapter);
  }
  Outcomes served;
  Outcomes expected;
  const int64_t lengths[] = {300, 140, 220, 129};
  for (int64_t i = 0; i < 4; ++i) {
    const EngineRequest request = Request(i + 1, static_cast<int>(i % 3), lengths[i]);
    ASSERT_TRUE(cluster.Submit(request));
    for (const EngineResult& result : cluster.Drain()) {
      Record(result, &served);
    }
    reference.Submit(request);
    for (const EngineResult& result : reference.RunAll()) {
      Record(result, &expected);
    }
  }
  ExpectSameOutcomes(expected, served, "cluster");
}

}  // namespace
}  // namespace vlora
