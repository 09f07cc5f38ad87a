#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/engine/engine.h"
#include "src/engine/vision.h"

namespace vlora {
namespace {

std::vector<int32_t> Prompt(int64_t len, uint64_t seed, int64_t vocab) {
  Rng rng(seed);
  std::vector<int32_t> tokens;
  for (int64_t i = 0; i < len; ++i) {
    // Avoid the EOS token (1) inside prompts.
    tokens.push_back(static_cast<int32_t>(rng.NextInt(2, vocab - 1)));
  }
  return tokens;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : config_(TinyConfig()) {}

  std::unique_ptr<InferenceEngine> MakeEngine(uint64_t seed = 42) {
    EngineOptions options;
    options.seed = seed;
    options.kv_block_size = 16;
    options.kv_num_blocks = 256;
    return std::make_unique<InferenceEngine>(config_, options);
  }

  LoraAdapter MakeAdapter(const std::string& name, uint64_t seed) {
    Rng rng(seed);
    return LoraAdapter::Random(name, config_.num_layers, config_.d_model, 8, rng);
  }

  ModelConfig config_;
};

TEST_F(EngineTest, DeterministicAcrossInstances) {
  auto e1 = MakeEngine();
  auto e2 = MakeEngine();
  EngineRequest request;
  request.id = 1;
  request.prompt_tokens = Prompt(20, 3, config_.vocab_size);
  request.max_new_tokens = 6;
  const EngineResult r1 = e1->RunToCompletion(request);
  const EngineResult r2 = e2->RunToCompletion(request);
  EXPECT_EQ(r1.output_tokens, r2.output_tokens);
  EXPECT_FALSE(r1.output_tokens.empty());
}

TEST_F(EngineTest, RespectsMaxNewTokens) {
  auto engine = MakeEngine();
  EngineRequest request;
  request.id = 1;
  request.prompt_tokens = Prompt(10, 5, config_.vocab_size);
  request.max_new_tokens = 3;
  request.eos_token = -1;  // never emitted
  const EngineResult result = engine->RunToCompletion(request);
  EXPECT_EQ(result.output_tokens.size(), 3u);
  EXPECT_EQ(result.decode_steps, 3);
}

TEST_F(EngineTest, BaseVsAdapterOutputsDiffer) {
  auto engine = MakeEngine();
  LoraAdapter adapter = MakeAdapter("a", 7);
  adapter.set_scaling(4.0f);  // large enough to flip argmax decisions
  const int id = engine->RegisterAdapter(&adapter);

  EngineRequest base;
  base.id = 1;
  base.prompt_tokens = Prompt(24, 9, config_.vocab_size);
  base.max_new_tokens = 8;
  base.eos_token = -1;
  EngineRequest with_adapter = base;
  with_adapter.id = 2;
  with_adapter.adapter_id = id;

  engine->SetMode(InferMode::kUnmerged);
  const EngineResult r_base = engine->RunToCompletion(base);
  const EngineResult r_lora = engine->RunToCompletion(with_adapter);
  EXPECT_NE(r_base.output_tokens, r_lora.output_tokens);
}

TEST_F(EngineTest, MergedEqualsUnmerged) {
  LoraAdapter adapter = MakeAdapter("a", 11);
  EngineRequest request;
  request.prompt_tokens = Prompt(30, 13, config_.vocab_size);
  request.max_new_tokens = 5;
  request.eos_token = -1;

  auto unmerged_engine = MakeEngine();
  const int id_u = unmerged_engine->RegisterAdapter(&adapter);
  unmerged_engine->SetMode(InferMode::kUnmerged);
  EngineRequest ru = request;
  ru.id = 1;
  ru.adapter_id = id_u;
  const EngineResult unmerged = unmerged_engine->RunToCompletion(ru);

  auto merged_engine = MakeEngine();
  const int id_m = merged_engine->RegisterAdapter(&adapter);
  merged_engine->SetMode(InferMode::kMerged, id_m);
  EngineRequest rm = request;
  rm.id = 2;
  rm.adapter_id = id_m;
  const EngineResult merged = merged_engine->RunToCompletion(rm);

  EXPECT_EQ(unmerged.output_tokens, merged.output_tokens);
}

TEST_F(EngineTest, MixtureEqualsUnmergedForForeignAdapter) {
  // Request runs adapter B while adapter A is merged: the deLoRA branch must
  // cancel A exactly, matching a clean unmerged run of B.
  LoraAdapter a = MakeAdapter("a", 17);
  LoraAdapter b = MakeAdapter("b", 19);
  EngineRequest request;
  request.prompt_tokens = Prompt(28, 21, config_.vocab_size);
  request.max_new_tokens = 5;
  request.eos_token = -1;

  auto clean = MakeEngine();
  clean->RegisterAdapter(&a);
  const int idb_clean = clean->RegisterAdapter(&b);
  clean->SetMode(InferMode::kUnmerged);
  EngineRequest rc = request;
  rc.id = 1;
  rc.adapter_id = idb_clean;
  const EngineResult unmerged = clean->RunToCompletion(rc);

  auto mixture = MakeEngine();
  const int ida = mixture->RegisterAdapter(&a);
  const int idb = mixture->RegisterAdapter(&b);
  mixture->SetMode(InferMode::kMixture, ida);
  EngineRequest rx = request;
  rx.id = 2;
  rx.adapter_id = idb;
  const EngineResult mixed = mixture->RunToCompletion(rx);

  EXPECT_EQ(unmerged.output_tokens, mixed.output_tokens);
}

TEST_F(EngineTest, MixtureServesMergedAdapterUntouched) {
  LoraAdapter a = MakeAdapter("a", 23);
  EngineRequest request;
  request.prompt_tokens = Prompt(26, 25, config_.vocab_size);
  request.max_new_tokens = 4;
  request.eos_token = -1;

  auto merged_engine = MakeEngine();
  const int id1 = merged_engine->RegisterAdapter(&a);
  merged_engine->SetMode(InferMode::kMerged, id1);
  EngineRequest r1 = request;
  r1.id = 1;
  r1.adapter_id = id1;
  const EngineResult merged = merged_engine->RunToCompletion(r1);

  auto mixture_engine = MakeEngine();
  const int id2 = mixture_engine->RegisterAdapter(&a);
  mixture_engine->SetMode(InferMode::kMixture, id2);
  EngineRequest r2 = request;
  r2.id = 2;
  r2.adapter_id = id2;
  const EngineResult mixed = mixture_engine->RunToCompletion(r2);

  EXPECT_EQ(merged.output_tokens, mixed.output_tokens);
}

TEST_F(EngineTest, ModeSwitchRoundTripPreservesOutputs) {
  auto engine = MakeEngine();
  LoraAdapter a = MakeAdapter("a", 27);
  LoraAdapter b = MakeAdapter("b", 29);
  const int ida = engine->RegisterAdapter(&a);
  const int idb = engine->RegisterAdapter(&b);

  EngineRequest request;
  request.prompt_tokens = Prompt(22, 31, config_.vocab_size);
  request.max_new_tokens = 4;
  request.eos_token = -1;
  request.adapter_id = ida;

  engine->SetMode(InferMode::kUnmerged);
  EngineRequest r1 = request;
  r1.id = 1;
  const EngineResult before = engine->RunToCompletion(r1);

  // Thrash the switcher: merge a, merge b, back to unmerged.
  engine->SetMode(InferMode::kMerged, ida);
  engine->SetMode(InferMode::kMerged, idb);
  engine->SetMode(InferMode::kUnmerged);
  EXPECT_GE(engine->mode_switch_count(), 3);

  EngineRequest r2 = request;
  r2.id = 2;
  const EngineResult after = engine->RunToCompletion(r2);
  EXPECT_EQ(before.output_tokens, after.output_tokens);
}

TEST_F(EngineTest, MixedTargetAdaptersInOneBatch) {
  // One adapter adapts all three projections, another only Wv: the batched
  // bypass planner must route each adapter's branches to exactly its targets.
  Rng rng(91);
  LoraAdapter full = LoraAdapter::Random("full", config_.num_layers, config_.d_model, 8, rng);
  LoraAdapter v_only = LoraAdapter::Random("v-only", config_.num_layers, config_.d_model, 8, rng,
                                           0.05f, {LoraTarget::kWv});

  auto make_requests = [&](int id_base) {
    std::vector<EngineRequest> requests;
    for (int i = 0; i < 2; ++i) {
      EngineRequest request;
      request.id = id_base + i;
      request.prompt_tokens = Prompt(20 + 3 * i, 200 + static_cast<uint64_t>(i),
                                     config_.vocab_size);
      request.max_new_tokens = 4;
      request.eos_token = -1;
      request.adapter_id = i;
      requests.push_back(request);
    }
    return requests;
  };

  // Reference: each request alone.
  std::vector<std::vector<int32_t>> reference;
  for (const EngineRequest& request : make_requests(0)) {
    auto engine = MakeEngine();
    engine->RegisterAdapter(&full);
    engine->RegisterAdapter(&v_only);
    engine->SetMode(InferMode::kUnmerged);
    reference.push_back(engine->RunToCompletion(request).output_tokens);
  }

  // Batched: both together, then also in mixture mode with `full` merged.
  for (InferMode mode : {InferMode::kUnmerged, InferMode::kMixture}) {
    auto engine = MakeEngine();
    const int full_id = engine->RegisterAdapter(&full);
    engine->RegisterAdapter(&v_only);
    engine->SetMode(mode, mode == InferMode::kMixture ? full_id : -1);
    for (const EngineRequest& request : make_requests(0)) {
      engine->Submit(request);
    }
    std::vector<std::vector<int32_t>> outputs(2);
    while (engine->HasWork()) {
      for (EngineResult& result : engine->Step()) {
        outputs[static_cast<size_t>(result.request_id)] = std::move(result.output_tokens);
      }
    }
    EXPECT_EQ(outputs[0], reference[0]) << InferModeName(mode);
    EXPECT_EQ(outputs[1], reference[1]) << InferModeName(mode);
  }
}

TEST_F(EngineTest, TaskHeadFinishesInOneRound) {
  auto engine = MakeEngine();
  LoraAdapter adapter = MakeAdapter("a", 33);
  Rng rng(35);
  VisionTaskHead head;
  head.task = VisionTask::kVideoClassification;
  head.weight = Tensor::Random(Shape(config_.d_model, 12), rng, 0.3f);
  adapter.SetTaskHead(std::move(head));
  const int id = engine->RegisterAdapter(&adapter);
  engine->SetMode(InferMode::kUnmerged);

  EngineRequest request;
  request.id = 1;
  request.prompt_tokens = Prompt(40, 37, config_.vocab_size);
  request.adapter_id = id;
  request.use_task_head = true;
  request.max_new_tokens = 64;  // irrelevant: the head answers in one round
  const EngineResult result = engine->RunToCompletion(request);
  EXPECT_GE(result.head_option, 0);
  EXPECT_LT(result.head_option, 12);
  EXPECT_TRUE(result.output_tokens.empty());
  EXPECT_EQ(result.decode_steps, 0);
}

TEST_F(EngineTest, ContinuousBatchingMatchesSequentialRuns) {
  LoraAdapter a = MakeAdapter("a", 41);
  LoraAdapter b = MakeAdapter("b", 43);

  // Sequential reference.
  std::vector<EngineResult> reference;
  for (int i = 0; i < 3; ++i) {
    auto engine = MakeEngine();
    const int ida = engine->RegisterAdapter(&a);
    const int idb = engine->RegisterAdapter(&b);
    engine->SetMode(InferMode::kUnmerged);
    EngineRequest request;
    request.id = i;
    request.prompt_tokens = Prompt(15 + 4 * i, 100 + static_cast<uint64_t>(i),
                                   config_.vocab_size);
    request.max_new_tokens = 4;
    request.eos_token = -1;
    request.adapter_id = i == 0 ? ida : (i == 1 ? idb : -1);
    reference.push_back(engine->RunToCompletion(request));
  }

  // Batched run of the same three requests.
  auto engine = MakeEngine();
  const int ida = engine->RegisterAdapter(&a);
  const int idb = engine->RegisterAdapter(&b);
  engine->SetMode(InferMode::kUnmerged);
  for (int i = 0; i < 3; ++i) {
    EngineRequest request;
    request.id = i;
    request.prompt_tokens = Prompt(15 + 4 * i, 100 + static_cast<uint64_t>(i),
                                   config_.vocab_size);
    request.max_new_tokens = 4;
    request.eos_token = -1;
    request.adapter_id = i == 0 ? ida : (i == 1 ? idb : -1);
    engine->Submit(request);
  }
  std::vector<EngineResult> results(3);
  while (engine->HasWork()) {
    for (EngineResult& result : engine->Step()) {
      results[static_cast<size_t>(result.request_id)] = std::move(result);
    }
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].output_tokens,
              reference[static_cast<size_t>(i)].output_tokens)
        << "request " << i;
  }
}

TEST_F(EngineTest, PrefixReuseProducesIdenticalOutputs) {
  auto engine = MakeEngine();
  engine->SetMode(InferMode::kUnmerged);
  VisionEncoder vision(config_);
  const std::vector<int32_t> text = Prompt(9, 51, config_.vocab_size);
  // Two requests over the same image: the second must reuse the first's
  // prompt blocks and still produce the same answer.
  EngineRequest first;
  first.id = 1;
  first.prompt_tokens = vision.BuildPrompt(77, text);
  first.max_new_tokens = 4;
  first.eos_token = -1;
  first.capture_final_hidden = true;
  const EngineResult r1 = engine->RunToCompletion(first);
  EXPECT_EQ(r1.reused_tokens, 0);
  ASSERT_EQ(r1.final_hidden.size(), static_cast<size_t>(config_.d_model));
  // Attention output depends only on a row's absolute position and the
  // cached K/V, so a prefill that starts after reused blocks reproduces the
  // last prompt row bit for bit.
  auto same_hidden = [&](const EngineResult& result) {
    return result.final_hidden.size() == r1.final_hidden.size() &&
           std::memcmp(result.final_hidden.data(), r1.final_hidden.data(),
                       r1.final_hidden.size() * sizeof(float)) == 0;
  };

  // The persistent prefix cache keeps the prompt blocks alive after the first
  // request finished: the repeat reuses them and answers identically.
  EngineRequest second = first;
  second.id = 2;
  const EngineResult r2 = engine->RunToCompletion(second);
  EXPECT_EQ(r2.output_tokens, r1.output_tokens);
  EXPECT_GT(r2.reused_tokens, 0);
  EXPECT_TRUE(same_hidden(r2));
  EXPECT_GT(engine->kv().prefix_hits(), 0);

  // Concurrent clones share blocks too.
  EngineRequest a = first;
  a.id = 3;
  EngineRequest b = first;
  b.id = 4;
  engine->Submit(a);
  engine->Step();  // a prefills (reusing the cache) before b is admitted
  engine->Submit(b);
  std::vector<EngineResult> results;
  while (engine->HasWork()) {
    for (EngineResult& result : engine->Step()) {
      results.push_back(std::move(result));
    }
  }
  for (const EngineResult& result : results) {
    if (result.request_id == 4) {
      EXPECT_GT(result.reused_tokens, 0);
      EXPECT_EQ(result.output_tokens, r1.output_tokens);
      EXPECT_TRUE(same_hidden(result));
    }
  }
}

TEST_F(EngineTest, PrefixReuseDoesNotCrossAdapters) {
  auto engine = MakeEngine();
  LoraAdapter adapter = MakeAdapter("a", 53);
  const int id = engine->RegisterAdapter(&adapter);
  engine->SetMode(InferMode::kUnmerged);

  const std::vector<int32_t> prompt = Prompt(48, 55, config_.vocab_size);
  EngineRequest base;
  base.id = 1;
  base.prompt_tokens = prompt;
  base.max_new_tokens = 12;  // keep it alive while the second runs
  base.eos_token = -1;
  engine->Submit(base);
  engine->Step();  // base prefills and registers its blocks

  EngineRequest with_adapter;
  with_adapter.id = 2;
  with_adapter.prompt_tokens = prompt;
  with_adapter.adapter_id = id;
  with_adapter.max_new_tokens = 2;
  with_adapter.eos_token = -1;
  engine->Submit(with_adapter);
  std::vector<EngineResult> results;
  while (engine->HasWork()) {
    for (EngineResult& result : engine->Step()) {
      results.push_back(std::move(result));
    }
  }
  for (const EngineResult& result : results) {
    if (result.request_id == 2) {
      // Different adapter -> different chain seed -> no reuse.
      EXPECT_EQ(result.reused_tokens, 0);
    }
  }
}

TEST_F(EngineTest, StepSelectedAdvancesOnlySelection) {
  auto engine = MakeEngine();
  engine->SetMode(InferMode::kUnmerged);
  for (int i = 0; i < 2; ++i) {
    EngineRequest request;
    request.id = i;
    request.prompt_tokens = Prompt(12, 60 + static_cast<uint64_t>(i), config_.vocab_size);
    request.max_new_tokens = 2;
    request.eos_token = -1;
    engine->Submit(request);
  }
  // Drive only request 0 to completion.
  std::vector<int64_t> only = {0};
  int64_t finished_id = -1;
  for (int iter = 0; iter < 10 && finished_id < 0; ++iter) {
    for (const EngineResult& result : engine->StepSelected(only)) {
      finished_id = result.request_id;
    }
  }
  EXPECT_EQ(finished_id, 0);
  // Request 1 is still queued and untouched.
  auto queue = engine->Queue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue[0].request_id, 1);
  EXPECT_FALSE(queue[0].prefilled);
}

TEST_F(EngineTest, PreemptionUnderKvPressurePreservesOutputs) {
  // Reference run with ample KV.
  std::vector<EngineRequest> requests;
  for (int i = 0; i < 4; ++i) {
    EngineRequest request;
    request.id = i;
    request.prompt_tokens = Prompt(30 + 5 * i, 300 + static_cast<uint64_t>(i),
                                   config_.vocab_size);
    request.max_new_tokens = 6;
    request.eos_token = -1;
    requests.push_back(request);
  }
  std::vector<std::vector<int32_t>> reference;
  {
    auto engine = MakeEngine();
    engine->SetMode(InferMode::kUnmerged);
    for (const EngineRequest& request : requests) {
      engine->Submit(request);
    }
    std::vector<std::vector<int32_t>> outputs(requests.size());
    while (engine->HasWork()) {
      for (EngineResult& result : engine->Step()) {
        outputs[static_cast<size_t>(result.request_id)] = std::move(result.output_tokens);
      }
    }
    reference = std::move(outputs);
  }

  // Starved run: enough blocks for roughly two sequences, forcing preemption.
  EngineOptions tight;
  tight.seed = 42;
  tight.kv_block_size = 16;
  tight.kv_num_blocks = 8;
  InferenceEngine engine(config_, tight);
  engine.SetMode(InferMode::kUnmerged);
  for (const EngineRequest& request : requests) {
    engine.Submit(request);
  }
  std::vector<std::vector<int32_t>> outputs(requests.size());
  int iterations = 0;
  while (engine.HasWork()) {
    ASSERT_LT(++iterations, 500) << "livelock under KV pressure";
    for (EngineResult& result : engine.Step()) {
      outputs[static_cast<size_t>(result.request_id)] = std::move(result.output_tokens);
    }
  }
  EXPECT_GT(engine.preemption_count(), 0);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(outputs[i], reference[i]) << "request " << i;
  }
}

TEST_F(EngineTest, SingleSequenceNeverPreemptsItself) {
  EngineOptions tight;
  tight.kv_block_size = 16;
  tight.kv_num_blocks = 4;  // 64 tokens of capacity
  InferenceEngine engine(config_, tight);
  EngineRequest request;
  request.id = 1;
  request.prompt_tokens = Prompt(40, 400, config_.vocab_size);
  request.max_new_tokens = 5;
  request.eos_token = -1;
  const EngineResult result = engine.RunToCompletion(request);
  EXPECT_EQ(result.output_tokens.size(), 5u);
  EXPECT_EQ(engine.preemption_count(), 0);
}

TEST_F(EngineTest, QueueReportsState) {
  auto engine = MakeEngine();
  EngineRequest request;
  request.id = 9;
  request.prompt_tokens = Prompt(10, 71, config_.vocab_size);
  request.max_new_tokens = 5;
  request.eos_token = -1;
  engine->Submit(request);
  auto queue = engine->Queue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue[0].request_id, 9);
  EXPECT_EQ(queue[0].prompt_tokens, 10);
  EXPECT_FALSE(queue[0].prefilled);
  engine->Step();
  queue = engine->Queue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue[0].prefilled);
  EXPECT_EQ(queue[0].remaining_new_tokens, 4);
}

TEST_F(EngineTest, VisionEncoderDeterministic) {
  VisionEncoder vision(config_);
  EXPECT_EQ(vision.Encode(5), vision.Encode(5));
  EXPECT_NE(vision.Encode(5), vision.Encode(6));
  EXPECT_EQ(static_cast<int64_t>(vision.Encode(5).size()), config_.visual_tokens_per_image);
  const std::vector<int32_t> text = {3, 4, 5};
  const std::vector<int32_t> prompt = vision.BuildPrompt(5, text);
  EXPECT_EQ(static_cast<int64_t>(prompt.size()), config_.visual_tokens_per_image + 3);
  const std::vector<int32_t> video = vision.BuildVideoPrompt({1, 2, 3}, text);
  EXPECT_EQ(static_cast<int64_t>(video.size()), 3 * config_.visual_tokens_per_image + 3);
}

}  // namespace
}  // namespace vlora
