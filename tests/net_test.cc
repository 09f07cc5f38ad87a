// Wire-protocol tests (src/net): codec edge cases, frame reassembly across
// arbitrary chunk boundaries, rejection of truncated/corrupt/oversized input
// (always a clean Status or false, never UB), a round trip of every message
// type — including bit-exact adapter weights — the exact bytes of a golden
// frame per message type, and a Channel smoke test over a real socketpair.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/kv_handle.h"
#include "src/engine/model_config.h"
#include "src/lora/adapter.h"
#include "src/net/channel.h"
#include "src/net/fd.h"
#include "src/net/messages.h"
#include "src/net/wire.h"

namespace vlora {
namespace net {
namespace {

// --- WireWriter / WireReader -----------------------------------------------

TEST(WireCodecTest, VarintRoundTripsEdgeValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t value : values) {
    WireWriter writer;
    writer.Varint(value);
    WireReader reader(writer.data());
    uint64_t decoded = 0;
    EXPECT_TRUE(reader.Varint(&decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(reader.Done());
  }
}

TEST(WireCodecTest, SignedVarintZigzagsSmallNegatives) {
  const int64_t values[] = {0, -1, 1, -64, 64, std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t value : values) {
    WireWriter writer;
    writer.SignedVarint(value);
    WireReader reader(writer.data());
    int64_t decoded = 0;
    EXPECT_TRUE(reader.SignedVarint(&decoded)) << value;
    EXPECT_EQ(decoded, value);
  }
  // -1 must stay one byte on the wire (adapter_id = -1 is the common case).
  WireWriter writer;
  writer.SignedVarint(-1);
  EXPECT_EQ(writer.data().size(), 1u);
}

TEST(WireCodecTest, TruncatedVarintFailsCleanly) {
  WireWriter writer;
  writer.Varint(std::numeric_limits<uint64_t>::max());
  const std::string bytes = writer.data();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader reader(bytes.data(), cut);
    uint64_t decoded = 0;
    EXPECT_FALSE(reader.Varint(&decoded)) << "cut at " << cut;
    EXPECT_FALSE(reader.ok());
  }
}

TEST(WireCodecTest, OverlongVarintIsRejected) {
  // Ten continuation bytes claiming bits beyond the 64th.
  const std::string overlong(10, static_cast<char>(0xFF));
  WireReader reader(overlong);
  uint64_t decoded = 0;
  EXPECT_FALSE(reader.Varint(&decoded));
  EXPECT_FALSE(reader.ok());
}

TEST(WireCodecTest, FailedReaderLatchesAndStopsConsuming) {
  WireWriter writer;
  writer.U8(7);
  WireReader reader(writer.data());
  uint32_t wide = 0;
  EXPECT_FALSE(reader.U32(&wide));  // only one byte available
  // Latched: even a read that would fit now fails.
  uint8_t narrow = 0;
  EXPECT_FALSE(reader.U8(&narrow));
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.Done());
}

TEST(WireCodecTest, StrHonoursCallerBound) {
  WireWriter writer;
  writer.Str("hello world");
  WireReader strict(writer.data());
  std::string out;
  EXPECT_FALSE(strict.Str(&out, /*max_size=*/4));
  WireReader relaxed(writer.data());
  EXPECT_TRUE(relaxed.Str(&out, /*max_size=*/64));
  EXPECT_EQ(out, "hello world");
}

TEST(WireCodecTest, StrLengthBeyondBufferFails) {
  WireWriter writer;
  writer.Varint(1000);  // declares 1000 bytes, provides none
  WireReader reader(writer.data());
  std::string out;
  EXPECT_FALSE(reader.Str(&out));
  EXPECT_FALSE(reader.ok());
}

TEST(WireCodecTest, ArraysRoundTripAndEnforceMaxCount) {
  const std::vector<int32_t> ints = {-3, 0, 7, 1 << 30};
  const std::vector<float> floats = {0.0f, -1.5f, 3.25e6f};
  WireWriter writer;
  writer.I32Array(ints.data(), ints.size());
  writer.F32Array(floats.data(), floats.size());

  WireReader reader(writer.data());
  std::vector<int32_t> ints_out;
  std::vector<float> floats_out;
  EXPECT_TRUE(reader.I32Array(&ints_out, /*max_count=*/16));
  EXPECT_TRUE(reader.F32Array(&floats_out, /*max_count=*/16));
  EXPECT_EQ(ints_out, ints);
  EXPECT_EQ(floats_out, floats);
  EXPECT_TRUE(reader.Done());

  WireReader bounded(writer.data());
  EXPECT_FALSE(bounded.I32Array(&ints_out, /*max_count=*/3));
  EXPECT_FALSE(bounded.ok());
}

TEST(WireCodecTest, FloatRunMustMatchTheCallersCount) {
  const std::vector<float> run = {1.0f, -2.0f, 0.5f};
  WireWriter writer;
  writer.Floats(run.data(), run.size());

  std::vector<float> out(3);
  WireReader exact(writer.data());
  EXPECT_TRUE(exact.Floats(out.data(), out.size()));
  EXPECT_TRUE(exact.Done());
  EXPECT_EQ(out, run);

  WireReader shorter(writer.data());  // caller expects 2 floats, wire says 3
  EXPECT_FALSE(shorter.Floats(out.data(), 2));
  WireReader truncated(writer.data().data(), writer.data().size() - 1);
  EXPECT_FALSE(truncated.Floats(out.data(), out.size()));
  EXPECT_FALSE(truncated.ok());
}

TEST(WireCodecTest, MixedFieldsRoundTrip) {
  WireWriter writer;
  writer.U8(0xAB);
  writer.U16(0xBEEF);
  writer.U32(0xDEADBEEFu);
  writer.U64(0x0123456789ABCDEFull);
  writer.F32(2.5f);
  writer.F64(-1e100);
  writer.Str("mixed");

  WireReader reader(writer.data());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  float f32 = 0.0f;
  double f64 = 0.0;
  std::string str;
  EXPECT_TRUE(reader.U8(&u8));
  EXPECT_TRUE(reader.U16(&u16));
  EXPECT_TRUE(reader.U32(&u32));
  EXPECT_TRUE(reader.U64(&u64));
  EXPECT_TRUE(reader.F32(&f32));
  EXPECT_TRUE(reader.F64(&f64));
  EXPECT_TRUE(reader.Str(&str));
  EXPECT_TRUE(reader.Done());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f32, 2.5f);
  EXPECT_EQ(f64, -1e100);
  EXPECT_EQ(str, "mixed");
}

// --- FrameAssembler ---------------------------------------------------------

TEST(FrameAssemblerTest, ReassemblesByteByByte) {
  const std::string payload = EncodeFrame(MessageType::kStart, "");
  const std::string frame = payload;  // EncodeFrame already length-prefixes
  FrameAssembler assembler;
  std::string out;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_TRUE(assembler.Feed(frame.data() + i, 1).ok());
    EXPECT_FALSE(assembler.Next(&out)) << "frame complete too early at byte " << i;
  }
  ASSERT_TRUE(assembler.Feed(frame.data() + frame.size() - 1, 1).ok());
  ASSERT_TRUE(assembler.Next(&out));
  Result<Envelope> envelope = DecodeEnvelope(out);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope.value().type, MessageType::kStart);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, PopsMultipleFramesFromOneFeed) {
  HelloMessage hello;
  hello.replica = 3;
  hello.pid = 4242;
  StopMessage stop;
  const std::string stream = EncodeMessageFrame(hello) + EncodeMessageFrame(stop);

  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(stream.data(), stream.size()).ok());
  std::string first;
  std::string second;
  std::string third;
  ASSERT_TRUE(assembler.Next(&first));
  ASSERT_TRUE(assembler.Next(&second));
  EXPECT_FALSE(assembler.Next(&third));

  Result<Envelope> a = DecodeEnvelope(first);
  Result<Envelope> b = DecodeEnvelope(second);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().type, MessageType::kHello);
  EXPECT_EQ(b.value().type, MessageType::kStop);
}

TEST(FrameAssemblerTest, OversizedDeclaredLengthPoisons) {
  const uint32_t huge = kMaxFrameBytes + 1;
  char prefix[sizeof(huge)];
  std::memcpy(prefix, &huge, sizeof(huge));

  FrameAssembler assembler;
  const Status fed = assembler.Feed(prefix, sizeof(prefix));
  EXPECT_FALSE(fed.ok());
  EXPECT_EQ(fed.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(assembler.poisoned());
  std::string out;
  EXPECT_FALSE(assembler.Next(&out));
  // Poisoning is terminal: further feeds are refused, nothing is buffered up.
  const Status refed = assembler.Feed("x", 1);
  EXPECT_FALSE(refed.ok());
  EXPECT_EQ(refed.code(), StatusCode::kFailedPrecondition);
}

TEST(FrameAssemblerTest, OversizedQueuedFramePoisonsAfterPop) {
  // A valid frame followed by a corrupt oversized length in the same buffer.
  // Feed's eager check only sees the head of the buffer (the valid length),
  // so the corrupt length is caught when Next pops past it — the first frame
  // still delivers, then the assembler poisons instead of waiting for 4 GiB.
  std::string stream = EncodeMessageFrame(StopMessage{});
  const uint32_t huge = kMaxFrameBytes + 1;
  stream.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(stream.data(), stream.size()).ok());
  std::string out;
  ASSERT_TRUE(assembler.Next(&out));
  EXPECT_EQ(DecodeEnvelope(out).value().type, MessageType::kStop);
  EXPECT_TRUE(assembler.poisoned());
  EXPECT_FALSE(assembler.Next(&out));
}

// --- Envelope validation ----------------------------------------------------

std::string PayloadOf(const std::string& frame) {
  FrameAssembler assembler;
  EXPECT_TRUE(assembler.Feed(frame.data(), frame.size()).ok());
  std::string payload;
  EXPECT_TRUE(assembler.Next(&payload));
  return payload;
}

TEST(EnvelopeTest, RejectsShortHeaderBadMagicBadVersionUnknownType) {
  EXPECT_FALSE(DecodeEnvelope("").ok());
  EXPECT_FALSE(DecodeEnvelope("VL").ok());

  std::string payload = PayloadOf(EncodeFrame(MessageType::kHeartbeat, "body"));
  ASSERT_GE(payload.size(), 4u);

  std::string bad_magic = payload;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeEnvelope(bad_magic).ok());

  std::string bad_version = payload;
  bad_version[2] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_FALSE(DecodeEnvelope(bad_version).ok());

  std::string bad_type = payload;
  bad_type[3] = 0;  // below kHello
  EXPECT_FALSE(DecodeEnvelope(bad_type).ok());
  bad_type[3] = static_cast<char>(static_cast<uint8_t>(MessageType::kKvPage) + 1);
  EXPECT_FALSE(DecodeEnvelope(bad_type).ok());

  Result<Envelope> good = DecodeEnvelope(payload);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().type, MessageType::kHeartbeat);
  EXPECT_EQ(good.value().body, "body");
}

// --- Typed message round trips ----------------------------------------------

template <typename M>
Result<M> RoundTrip(const M& message) {
  const std::string payload = PayloadOf(EncodeMessageFrame(message));
  Result<Envelope> envelope = DecodeEnvelope(payload);
  if (!envelope.ok()) {
    return envelope.status();
  }
  return DecodeAs<M>(envelope.value());
}

TEST(MessagesTest, HelloRoundTrips) {
  HelloMessage hello;
  hello.replica = 5;
  hello.pid = 123456789;
  Result<HelloMessage> out = RoundTrip(hello);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().replica, 5);
  EXPECT_EQ(out.value().pid, 123456789);
}

TEST(MessagesTest, ConfigRoundTripsModelAndTuning) {
  ConfigMessage config;
  config.model = TinyConfig();
  config.server.engine.kv_block_size = 8;
  config.server.engine.kv_num_blocks = 99;
  config.server.engine.seed = 0xC0FFEE;
  config.server.alg1.theta_ms = 12.5;
  config.server.alg1.exec_estimate_ms = 3.25;
  config.server.alg1.switch_ms = 0.75;
  config.server.alg1.slo_urgency_fraction = 0.4;
  config.server.max_batch_size = 3;
  config.server.device_pool_bytes = 12345678;
  config.queue_capacity = 17;
  config.heartbeat_period_ms = 7.5;

  Result<ConfigMessage> out = RoundTrip(config);
  ASSERT_TRUE(out.ok());
  const ConfigMessage& decoded = out.value();
  EXPECT_EQ(decoded.model.name, config.model.name);
  EXPECT_EQ(decoded.model.num_layers, config.model.num_layers);
  EXPECT_EQ(decoded.model.d_model, config.model.d_model);
  EXPECT_EQ(decoded.model.vocab_size, config.model.vocab_size);
  EXPECT_EQ(decoded.server.engine.kv_block_size, 8);
  EXPECT_EQ(decoded.server.engine.kv_num_blocks, 99);
  EXPECT_EQ(decoded.server.engine.seed, 0xC0FFEEu);
  EXPECT_EQ(decoded.server.alg1.theta_ms, 12.5);
  EXPECT_EQ(decoded.server.alg1.exec_estimate_ms, 3.25);
  EXPECT_EQ(decoded.server.alg1.switch_ms, 0.75);
  EXPECT_EQ(decoded.server.alg1.slo_urgency_fraction, 0.4);
  EXPECT_EQ(decoded.server.max_batch_size, 3);
  EXPECT_EQ(decoded.server.device_pool_bytes, 12345678);
  EXPECT_EQ(decoded.queue_capacity, 17);
  EXPECT_EQ(decoded.heartbeat_period_ms, 7.5);
}

TEST(MessagesTest, ConfigRejectsHeadSplitThatDoesNotDivideWidth) {
  ConfigMessage config;
  config.model = TinyConfig();
  config.model.d_model = 130;  // 8 heads of 16 would leave columns 128-129 unattended
  config.model.num_heads = 8;
  EXPECT_FALSE(RoundTrip(config).ok());
  config.model.num_heads = 10;  // 10 heads of 13 cover the width
  Result<ConfigMessage> out = RoundTrip(config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().model.d_head(), 13);
}

TEST(MessagesTest, AckPrewarmStartStopGoodbyeRoundTrip) {
  AckMessage ack;
  ack.value = 42;
  ack.code = StatusCode::kInvalidArgument;
  ack.message = "nope";
  Result<AckMessage> ack_out = RoundTrip(ack);
  ASSERT_TRUE(ack_out.ok());
  EXPECT_EQ(ack_out.value().value, 42);
  EXPECT_EQ(ack_out.value().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(ack_out.value().message, "nope");

  PrewarmMessage prewarm;
  prewarm.adapter_ids = {0, 3, 1};
  Result<PrewarmMessage> prewarm_out = RoundTrip(prewarm);
  ASSERT_TRUE(prewarm_out.ok());
  EXPECT_EQ(prewarm_out.value().adapter_ids, prewarm.adapter_ids);

  EXPECT_TRUE(RoundTrip(StartMessage{}).ok());
  EXPECT_TRUE(RoundTrip(StopMessage{}).ok());
  EXPECT_TRUE(RoundTrip(GoodbyeMessage{}).ok());
}

TEST(MessagesTest, RequestRoundTripsIncludingInjectedEmbeddings) {
  RequestMessage message;
  EngineRequest& request = message.request;
  request.id = -7;  // ids are signed on the wire
  request.prompt_tokens = {1, 2, 3, 500, 0};
  request.adapter_id = -1;
  request.max_new_tokens = 5;
  request.use_task_head = true;
  request.eos_token = 2;
  request.sampling.temperature = 0.5f;
  request.sampling.top_k = 40;
  request.sampling.seed = 0xFACEu;
  request.capture_final_hidden = true;
  InjectedEmbeddings injected;
  injected.position = 1;
  injected.embeddings = Tensor(Shape(2, 3));
  for (int64_t i = 0; i < injected.embeddings.NumElements(); ++i) {
    injected.embeddings.data()[static_cast<size_t>(i)] = 0.25f * static_cast<float>(i);
  }
  request.injected.push_back(injected);

  Result<RequestMessage> out = RoundTrip(message);
  ASSERT_TRUE(out.ok());
  const EngineRequest& decoded = out.value().request;
  EXPECT_EQ(decoded.id, -7);
  EXPECT_EQ(decoded.prompt_tokens, request.prompt_tokens);
  EXPECT_EQ(decoded.adapter_id, -1);
  EXPECT_EQ(decoded.max_new_tokens, 5);
  EXPECT_TRUE(decoded.use_task_head);
  EXPECT_EQ(decoded.eos_token, 2);
  EXPECT_EQ(decoded.sampling.temperature, 0.5f);
  EXPECT_EQ(decoded.sampling.top_k, 40);
  EXPECT_EQ(decoded.sampling.seed, 0xFACEu);
  EXPECT_TRUE(decoded.capture_final_hidden);
  ASSERT_EQ(decoded.injected.size(), 1u);
  EXPECT_EQ(decoded.injected[0].position, 1);
  ASSERT_EQ(decoded.injected[0].embeddings.NumElements(), 6);
  EXPECT_EQ(std::memcmp(decoded.injected[0].embeddings.data(), injected.embeddings.data(),
                        6 * sizeof(float)),
            0);
}

TEST(MessagesTest, ResultAndFailureRoundTrip) {
  ResultMessage result;
  result.result.request_id = 9;
  result.result.output_tokens = {4, 5, 6};
  result.result.head_option = 2;
  result.result.prefill_tokens = 12;
  result.result.reused_tokens = 4;
  result.result.decode_steps = 3;
  result.result.final_hidden = {1.0f, -2.0f};
  Result<ResultMessage> result_out = RoundTrip(result);
  ASSERT_TRUE(result_out.ok());
  EXPECT_EQ(result_out.value().result.request_id, 9);
  EXPECT_EQ(result_out.value().result.output_tokens, result.result.output_tokens);
  EXPECT_EQ(result_out.value().result.head_option, 2);
  EXPECT_EQ(result_out.value().result.prefill_tokens, 12);
  EXPECT_EQ(result_out.value().result.reused_tokens, 4);
  EXPECT_EQ(result_out.value().result.decode_steps, 3);
  EXPECT_EQ(result_out.value().result.final_hidden, result.result.final_hidden);

  FailureMessage failure;
  failure.request_id = 11;
  failure.code = StatusCode::kUnavailable;
  failure.message = "replica 2 executor killed";
  Result<FailureMessage> failure_out = RoundTrip(failure);
  ASSERT_TRUE(failure_out.ok());
  EXPECT_EQ(failure_out.value().request_id, 11);
  EXPECT_EQ(failure_out.value().ToStatus().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failure_out.value().message, "replica 2 executor killed");
}

TEST(MessagesTest, HeartbeatRoundTrips) {
  HeartbeatMessage heartbeat;
  heartbeat.worker_ms = 1234.5;
  Result<HeartbeatMessage> out = RoundTrip(heartbeat);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().worker_ms, 1234.5);
}

TEST(MessagesTest, TruncatedBodyAndTrailingGarbageAreRejected) {
  HelloMessage hello;
  hello.replica = 1;
  hello.pid = 100000;  // multi-byte varint, so truncation bites
  const std::string payload = PayloadOf(EncodeMessageFrame(hello));
  Result<Envelope> envelope = DecodeEnvelope(payload);
  ASSERT_TRUE(envelope.ok());

  Envelope truncated = envelope.value();
  ASSERT_FALSE(truncated.body.empty());
  truncated.body.pop_back();
  EXPECT_FALSE(DecodeAs<HelloMessage>(truncated).ok());

  Envelope trailing = envelope.value();
  trailing.body.push_back('\0');
  EXPECT_FALSE(DecodeAs<HelloMessage>(trailing).ok());  // Done() rejects padding

  Envelope wrong_type = envelope.value();
  EXPECT_FALSE(DecodeAs<StopMessage>(wrong_type).ok());
}

TEST(MessagesTest, EveryTruncationOfARequestFailsCleanly) {
  RequestMessage message;
  message.request.id = 3;
  message.request.prompt_tokens = {10, 20, 30, 40};
  const std::string payload = PayloadOf(EncodeMessageFrame(message));
  Result<Envelope> envelope = DecodeEnvelope(payload);
  ASSERT_TRUE(envelope.ok());
  const std::string body = envelope.value().body;
  for (size_t cut = 0; cut < body.size(); ++cut) {
    WireReader reader(body.data(), cut);
    RequestMessage out;
    // Either the parse fails outright or it leaves bytes it cannot explain;
    // both are protocol errors. It must never succeed with Done().
    EXPECT_FALSE(RequestMessage::Fields(reader, out) && reader.Done()) << "cut at " << cut;
  }
}

// --- Disaggregated KV handoff frames ----------------------------------------

// A structurally valid meta: 6 computed tokens in blocks of 4 -> 2 pages,
// one sampled token, so tokens holds computed + generated entries.
KvHandleMetaMessage ValidKvMeta() {
  KvHandleMetaMessage meta;
  meta.handle.request_id = 42;
  meta.handle.computed = 6;
  meta.handle.reused = 2;
  meta.handle.generated = 1;
  meta.handle.block_size = 4;
  meta.handle.pages.resize(2);
  meta.handle.tokens = {1, 2, 3, 4, 5, 6, 7};
  meta.handle.captured_hidden = {0.5f, -1.25f};
  return meta;
}

TEST(KvWireTest, HandleMetaRoundTripsAndRebuildsPageSkeleton) {
  const KvHandleMetaMessage meta = ValidKvMeta();
  Result<KvHandleMetaMessage> out = RoundTrip(meta);
  ASSERT_TRUE(out.ok());
  const KvHandle& handle = out.value().handle;
  EXPECT_EQ(handle.request_id, 42);
  EXPECT_EQ(handle.computed, 6);
  EXPECT_EQ(handle.reused, 2);
  EXPECT_EQ(handle.generated, 1);
  EXPECT_EQ(handle.block_size, 4);
  EXPECT_EQ(handle.tokens, meta.handle.tokens);
  EXPECT_EQ(handle.captured_hidden, meta.handle.captured_hidden);
  ASSERT_EQ(handle.pages.size(), 2u);
  EXPECT_EQ(handle.pages[0].index, 0);
  EXPECT_EQ(handle.pages[1].index, 1);
  EXPECT_TRUE(handle.pages[0].data.empty());  // KvPage frames fill these in
}

TEST(KvWireTest, HandleMetaOfAHandleSurvivesTheWire) {
  KvHandle handle;
  handle.request_id = 9;
  handle.tokens = {10, 11, 12, 13, 14};
  handle.computed = 4;
  handle.reused = 0;
  handle.generated = 1;
  handle.block_size = 4;
  handle.pages.resize(1);
  handle.pages[0].index = 0;
  handle.pages[0].data = {3.0f, 4.0f};
  handle.captured_hidden = {7.0f};

  Result<KvHandleMetaMessage> out = RoundTrip(KvHandleMetaMessage{handle});
  ASSERT_TRUE(out.ok());
  const KvHandle& back = out.value().handle;
  EXPECT_EQ(back.request_id, handle.request_id);
  EXPECT_EQ(back.tokens, handle.tokens);
  EXPECT_EQ(back.computed, handle.computed);
  EXPECT_EQ(back.generated, handle.generated);
  EXPECT_EQ(back.block_size, handle.block_size);
  EXPECT_EQ(back.captured_hidden, handle.captured_hidden);
  ASSERT_EQ(back.pages.size(), 1u);  // skeleton only; data rides in KvPage frames
}

TEST(KvWireTest, HandleMetaRejectsStructuralCorruption) {
  auto reject = [](KvHandleMetaMessage meta, const char* what) {
    const std::string payload = PayloadOf(EncodeMessageFrame(meta));
    Result<Envelope> envelope = DecodeEnvelope(payload);
    ASSERT_TRUE(envelope.ok()) << what;
    EXPECT_FALSE(DecodeAs<KvHandleMetaMessage>(envelope.value()).ok()) << what;
  };

  KvHandleMetaMessage meta = ValidKvMeta();
  meta.handle.pages.emplace_back();
  reject(meta, "page count disagrees with computed/block_size");

  meta = ValidKvMeta();
  meta.handle.tokens.pop_back();
  reject(meta, "token count disagrees with computed + generated");

  meta = ValidKvMeta();
  meta.handle.computed = 0;
  reject(meta, "no computed tokens");

  meta = ValidKvMeta();
  meta.handle.reused = meta.handle.computed + 1;
  reject(meta, "reused exceeds computed");

  meta = ValidKvMeta();
  meta.handle.block_size = 0;
  reject(meta, "zero block size");

  meta = ValidKvMeta();
  meta.handle.generated = 0;
  reject(meta, "no sampled token");
}

TEST(KvWireTest, EveryTruncationOfAHandleMetaFailsCleanly) {
  const std::string body = EncodeBody(ValidKvMeta());
  for (size_t cut = 0; cut < body.size(); ++cut) {
    WireReader reader(body.data(), cut);
    KvHandleMetaMessage out;
    EXPECT_FALSE(KvHandleMetaMessage::Fields(reader, out) && reader.Done()) << "cut at " << cut;
  }
}

TEST(KvWireTest, PageRoundTripsBitExact) {
  KvPageMessage page;
  page.request_id = 42;
  page.page_index = 1;
  page.data = {1.0f, -0.0f, 3.5f};
  Result<KvPageMessage> out = RoundTrip(page);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().request_id, 42);
  EXPECT_EQ(out.value().page_index, 1);
  ASSERT_EQ(out.value().data.size(), 3u);
  EXPECT_EQ(std::memcmp(out.value().data.data(), page.data.data(), 3 * sizeof(float)), 0);
}

TEST(KvWireTest, PageRejectsEmptyNegativeAndOversized) {
  KvPageMessage page;
  page.request_id = 42;
  page.page_index = 0;
  page.data = {1.0f};

  KvPageMessage empty = page;
  empty.data.clear();
  EXPECT_FALSE(RoundTrip(empty).ok());  // a page with no floats is meaningless

  KvPageMessage negative = page;
  negative.page_index = -1;
  EXPECT_FALSE(RoundTrip(negative).ok());

  // An adversarial frame declaring more floats than the 16 MiB page cap: the
  // parser must refuse on the declared count, before trusting the length.
  WireWriter writer;
  writer.SignedVarint(7);
  writer.SignedVarint(0);
  writer.Varint((1u << 22) + 1);
  Envelope oversized;
  oversized.type = MessageType::kKvPage;
  oversized.body = writer.Take();
  EXPECT_FALSE(DecodeAs<KvPageMessage>(oversized).ok());
}

template <typename M>
Envelope EnvelopeOf(const M& message) {
  return Envelope{M::kType, EncodeBody(message)};
}

KvPageMessage KvPageOf(int64_t page_index, std::vector<float> data) {
  KvPageMessage page;
  page.request_id = 42;
  page.page_index = page_index;
  page.data = std::move(data);
  return page;
}

TEST(KvWireTest, ReceiverEnforcesFrameRulesAndAssemblesBitExact) {
  KvHandleReceiver receiver;
  EXPECT_FALSE(receiver.Accept(EnvelopeOf(KvPageOf(0, {1.0f})))) << "page without its meta";
  EXPECT_EQ(receiver.Take(42), nullptr) << "unknown handle";

  ASSERT_TRUE(receiver.Accept(EnvelopeOf(ValidKvMeta())));  // 2 pages
  EXPECT_FALSE(receiver.Accept(EnvelopeOf(KvPageOf(2, {1.0f})))) << "index == num_pages";
  const std::vector<float> page0 = {1.0f, -0.0f, 3.5f};
  ASSERT_TRUE(receiver.Accept(EnvelopeOf(KvPageOf(0, page0))));
  EXPECT_FALSE(receiver.Accept(EnvelopeOf(KvPageOf(0, {9.0f})))) << "duplicate page";
  EXPECT_EQ(receiver.Take(42), nullptr) << "incomplete handle";

  const std::vector<float> page1 = {-2.25f, 1e-30f};
  ASSERT_TRUE(receiver.Accept(EnvelopeOf(KvPageOf(1, page1))));
  const std::shared_ptr<KvHandle> handle = receiver.Take(42);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->request_id, 42);
  EXPECT_EQ(handle->tokens, ValidKvMeta().handle.tokens);
  ASSERT_EQ(handle->pages.size(), 2u);
  ASSERT_EQ(handle->pages[0].data.size(), page0.size());
  EXPECT_EQ(std::memcmp(handle->pages[0].data.data(), page0.data(), sizeof(float) * 3), 0);
  ASSERT_EQ(handle->pages[1].data.size(), page1.size());
  EXPECT_EQ(std::memcmp(handle->pages[1].data.data(), page1.data(), sizeof(float) * 2), 0);
  EXPECT_EQ(receiver.Take(42), nullptr) << "a handle is taken once";
}

TEST(MessagesTest, RequestStageFlagsRoundTripAndConflictIsRejected) {
  RequestMessage prefill;
  prefill.request.id = 1;
  prefill.request.prompt_tokens = {1, 2};
  prefill.request.prefill_only = true;
  Result<RequestMessage> out = RoundTrip(prefill);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().request.prefill_only);
  EXPECT_FALSE(out.value().has_resume);

  RequestMessage resume;
  resume.request.id = 2;
  resume.request.prompt_tokens = {3, 4};
  resume.request.resume_handle = std::make_shared<KvHandle>();
  out = RoundTrip(resume);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().request.prefill_only);
  EXPECT_TRUE(out.value().has_resume);  // the handle itself ships as preceding frames
  EXPECT_EQ(out.value().request.resume_handle, nullptr);

  // A request claiming to be both stages at once is a protocol error.
  RequestMessage conflict;
  conflict.request.id = 3;
  conflict.request.prompt_tokens = {5};
  conflict.request.prefill_only = true;
  conflict.request.resume_handle = std::make_shared<KvHandle>();
  const std::string payload = PayloadOf(EncodeMessageFrame(conflict));
  Result<Envelope> envelope = DecodeEnvelope(payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(DecodeAs<RequestMessage>(envelope.value()).ok());
}

TEST(MessagesTest, ResultExpectsHandleFollowsAttachedHandle) {
  ResultMessage message;
  message.result.request_id = 5;
  message.result.output_tokens = {1};
  message.result.handle = std::make_shared<KvHandle>();
  Result<ResultMessage> out = RoundTrip(message);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().expects_handle);
  EXPECT_EQ(out.value().result.handle, nullptr);

  message.result.handle = nullptr;
  out = RoundTrip(message);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().expects_handle);
}

// --- Adapter shipping -------------------------------------------------------

// A plain adapter on every target with no head, and one that exercises the
// optional fields: a target subset, a non-unit scaling, a 12-option detection
// head and two fused domains.
std::vector<LoraAdapter> WireAdapters() {
  const ModelConfig config = TinyConfig();
  Rng rng(0x10adu);
  LoraAdapter plain =
      LoraAdapter::Random("wire-adapter", config.num_layers, config.d_model, /*rank=*/4, rng);
  plain.AddFusedDomain("medical");
  plain.AddFusedDomain("satellite");

  LoraAdapter headed = LoraAdapter::Random("traffic-detect", 3, 32, 8, rng, 0.1f,
                                           {LoraTarget::kWq, LoraTarget::kWo});
  headed.set_scaling(0.75f);
  VisionTaskHead head;
  head.task = VisionTask::kObjectDetection;
  head.weight = Tensor::Random(Shape(32, 12), rng, 0.3f);
  headed.SetTaskHead(std::move(head));
  headed.AddFusedDomain("license-plate");
  headed.AddFusedDomain("traffic-sign");

  std::vector<LoraAdapter> adapters;
  adapters.push_back(std::move(plain));
  adapters.push_back(std::move(headed));
  return adapters;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.NumElements() == b.NumElements() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.NumElements()) * sizeof(float)) ==
             0;
}

TEST(AdapterWireTest, AdapterWeightsCrossBitExact) {
  for (const LoraAdapter& adapter : WireAdapters()) {
    SCOPED_TRACE(adapter.name());
    WireWriter writer;
    AppendAdapter(writer, adapter);
    const std::string payload = PayloadOf(EncodeFrame(MessageType::kLoadAdapter, writer.Take()));
    Result<Envelope> envelope = DecodeEnvelope(payload);
    ASSERT_TRUE(envelope.ok());
    ASSERT_EQ(envelope.value().type, MessageType::kLoadAdapter);

    WireReader reader(envelope.value().body);
    Result<LoraAdapter> decoded = ParseAdapter(reader);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(reader.Done());

    EXPECT_EQ(decoded.value().name(), adapter.name());
    EXPECT_EQ(decoded.value().num_layers(), adapter.num_layers());
    EXPECT_EQ(decoded.value().d_model(), adapter.d_model());
    EXPECT_EQ(decoded.value().rank(), adapter.rank());
    EXPECT_EQ(decoded.value().scaling(), adapter.scaling());
    EXPECT_EQ(decoded.value().fused_domains(), adapter.fused_domains());
    ASSERT_EQ(decoded.value().task_head().has_value(), adapter.task_head().has_value());
    if (adapter.task_head().has_value()) {
      EXPECT_EQ(decoded.value().task_head()->task, adapter.task_head()->task);
      EXPECT_EQ(decoded.value().task_head()->weight.shape(), adapter.task_head()->weight.shape());
      EXPECT_TRUE(SameBits(decoded.value().task_head()->weight, adapter.task_head()->weight));
    }
    ASSERT_EQ(decoded.value().targets(), adapter.targets());
    for (LoraTarget target : adapter.targets()) {
      for (int layer = 0; layer < adapter.num_layers(); ++layer) {
        const LoraLayerWeights& a = adapter.layer(target, layer);
        const LoraLayerWeights& b = decoded.value().layer(target, layer);
        EXPECT_TRUE(SameBits(a.down, b.down));
        EXPECT_TRUE(SameBits(a.up, b.up));
      }
    }
  }
}

TEST(AdapterWireTest, EveryTruncationFailsCleanly) {
  const std::vector<LoraAdapter> adapters = WireAdapters();
  const LoraAdapter& headed = adapters.back();
  ASSERT_TRUE(headed.task_head().has_value());
  WireWriter writer;
  AppendAdapter(writer, headed);
  const std::string body = writer.Take();
  for (size_t cut = 0; cut < body.size(); ++cut) {
    WireReader reader(body.data(), cut);
    EXPECT_FALSE(ParseAdapter(reader).ok() && reader.Done()) << "cut at " << cut;
  }
}

TEST(AdapterWireTest, ImplausibleDimensionsAreRejected) {
  WireWriter writer;
  writer.Str("evil");
  writer.SignedVarint(1);    // layers
  writer.SignedVarint(4);    // d_model
  writer.SignedVarint(8);    // rank > d_model
  writer.F32(1.0f);
  writer.Varint(1);          // one target
  WireReader reader(writer.data());
  EXPECT_FALSE(ParseAdapter(reader).ok());

  WireWriter negative;
  negative.Str("evil");
  negative.SignedVarint(-1);  // negative layer count
  negative.SignedVarint(4);
  negative.SignedVarint(2);
  negative.F32(1.0f);
  negative.Varint(1);
  WireReader negative_reader(negative.data());
  EXPECT_FALSE(ParseAdapter(negative_reader).ok());
}

// --- Golden frames ----------------------------------------------------------

// Round trips pass on any symmetric format. These pin the format itself: the
// exact bytes of one frame per message type, and of a plain and a
// task-headed adapter, each built from fixed inputs. A change that moves,
// widens or re-encodes a field fails here.

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

ModelConfig GoldenModel() {
  ModelConfig model;
  model.name = "golden";
  model.num_layers = 2;
  model.d_model = 32;
  model.num_heads = 4;
  model.d_ff = 64;
  model.vocab_size = 300;
  model.max_seq_len = 128;
  model.visual_tokens_per_image = 16;
  model.vision_encoder_params_b = 0.25;
  return model;
}

ConfigMessage GoldenConfig() {
  ConfigMessage config;
  config.model = GoldenModel();
  config.server.engine.kv_block_size = 8;
  config.server.engine.kv_num_blocks = 99;
  config.server.engine.seed = 0xC0FFEE;
  config.server.alg1.theta_ms = 12.5;
  config.server.alg1.exec_estimate_ms = 3.25;
  config.server.alg1.switch_ms = 0.75;
  config.server.alg1.slo_urgency_fraction = 0.4;
  config.server.max_batch_size = 3;
  config.server.device_pool_bytes = 12345678;
  config.queue_capacity = 17;
  config.heartbeat_period_ms = 7.5;
  return config;
}

KvHandleMetaMessage GoldenKvMeta() {
  KvHandle handle;
  handle.request_id = 42;
  handle.tokens = {1, 2, 3, 4, 5, 6, 7};
  handle.computed = 6;
  handle.reused = 2;
  handle.generated = 1;
  handle.block_size = 4;
  handle.captured_hidden = {0.5f, -1.25f};
  handle.pages.resize(2);
  return KvHandleMetaMessage{handle};
}

// One rank-1 layer of width 2 per target, with every factor written out.
LoraAdapter GoldenAdapter(const std::string& name, std::vector<LoraTarget> targets) {
  Rng rng(1);
  LoraAdapter adapter = LoraAdapter::Random(name, 1, 2, 1, rng, 0.0f, std::move(targets));
  float value = 0.5f;
  for (LoraTarget target : adapter.targets()) {
    LoraLayerWeights& weights = adapter.layer(target, 0);
    for (Tensor* factor : {&weights.down, &weights.up}) {
      for (int64_t i = 0; i < factor->NumElements(); ++i) {
        factor->data()[i] = value;
        value = -2.0f * value;
      }
    }
  }
  return adapter;
}

std::string AdapterFrame(const LoraAdapter& adapter) {
  WireWriter writer;
  AppendAdapter(writer, adapter);
  return EncodeFrame(MessageType::kLoadAdapter, writer.Take());
}

TEST(GoldenFrameTest, SetupAndControlFramesKeepTheirBytes) {
  HelloMessage hello;
  hello.replica = 3;
  hello.pid = 40000;
  EXPECT_EQ(Hex(EncodeMessageFrame(hello)), "080000004c5601010680f104");

  EXPECT_EQ(Hex(EncodeMessageFrame(GoldenConfig())),
            "560000004c56010206676f6c64656e0440088001d804800220000000000000d03f10c601eeffc0000000"
            "000000000000000029400000000000000a40000000000000e83f9a9999999999d93f069c85e30b220000"
            "000000001e40");

  AckMessage ack;
  ack.value = 7;
  ack.code = StatusCode::kInvalidArgument;
  ack.message = "nope";
  EXPECT_EQ(Hex(EncodeMessageFrame(ack)), "0b0000004c5601040e01046e6f7065");

  PrewarmMessage prewarm;
  prewarm.adapter_ids = {0, 3, 1};
  EXPECT_EQ(Hex(EncodeMessageFrame(prewarm)), "110000004c56010503000000000300000001000000");

  EXPECT_EQ(Hex(EncodeMessageFrame(StartMessage{})), "040000004c560106");
  EXPECT_EQ(Hex(EncodeMessageFrame(StopMessage{})), "040000004c56010b");
  EXPECT_EQ(Hex(EncodeMessageFrame(GoodbyeMessage{})), "040000004c56010c");

  HeartbeatMessage heartbeat;
  heartbeat.worker_ms = 1234.5;
  EXPECT_EQ(Hex(EncodeMessageFrame(heartbeat)), "0c0000004c56010a00000000004a9340");
}

TEST(GoldenFrameTest, ServingFramesKeepTheirBytes) {
  RequestMessage request;
  request.request.id = -7;
  request.request.prompt_tokens = {1, 2, 300};
  request.request.adapter_id = -1;
  request.request.max_new_tokens = 5;
  request.request.use_task_head = true;
  request.request.eos_token = 2;
  request.request.sampling.temperature = 0.5f;
  request.request.sampling.top_k = 40;
  request.request.sampling.seed = 0xFACE;
  request.request.capture_final_hidden = true;
  InjectedEmbeddings injected;
  injected.position = 1;
  injected.embeddings = Tensor(Shape(2, 3));
  for (int64_t i = 0; i < injected.embeddings.NumElements(); ++i) {
    injected.embeddings.data()[i] = 0.25f * static_cast<float>(i);
  }
  request.request.injected.push_back(injected);
  request.request.prefill_only = true;
  EXPECT_EQ(Hex(EncodeMessageFrame(request)),
            "430000004c5601070d010a01040000003f50cefa000000000000010301000000020000002c0100000102"
            "020306000000000000803e0000003f0000403f0000803f0000a03f0100");

  RequestMessage resume;
  resume.request.id = 8;
  resume.request.prompt_tokens = {5};
  resume.request.resume_handle = std::make_shared<KvHandle>();
  EXPECT_EQ(Hex(EncodeMessageFrame(resume)),
            "1f0000004c560107100110000200000000500000000000000000000105000000000001");

  ResultMessage result;
  result.result.request_id = 9;
  result.result.output_tokens = {4, 5, 6};
  result.result.head_option = 2;
  result.result.prefill_tokens = 12;
  result.result.reused_tokens = 4;
  result.result.decode_steps = 3;
  result.result.final_hidden = {1.0f, -2.0f};
  result.result.handle = std::make_shared<KvHandle>();
  EXPECT_EQ(Hex(EncodeMessageFrame(result)),
            "200000004c560108120304000000050000000600000004180806020000803f000000c001");

  FailureMessage failure;
  failure.request_id = 11;
  failure.code = StatusCode::kUnavailable;
  failure.message = "executor lost";
  EXPECT_EQ(Hex(EncodeMessageFrame(failure)), "140000004c560109160a0d6578656375746f72206c6f7374");
}

TEST(GoldenFrameTest, KvHandoffFramesKeepTheirBytes) {
  EXPECT_EQ(Hex(EncodeMessageFrame(GoldenKvMeta())),
            "300000004c56010d540c0402080407010000000200000003000000040000000500000006000000070000"
            "00020000003f0000a0bf");

  KvPageMessage page;
  page.request_id = 42;
  page.page_index = 1;
  page.data = {1.0f, -0.0f, 3.5f};
  EXPECT_EQ(Hex(EncodeMessageFrame(page)), "130000004c56010e5402030000803f0000008000006040");
}

TEST(GoldenFrameTest, AdapterFramesKeepTheirBytes) {
  LoraAdapter plain = GoldenAdapter("plain", {LoraTarget::kWq, LoraTarget::kWv, LoraTarget::kWo});
  plain.AddFusedDomain("medical");
  EXPECT_EQ(Hex(AdapterFrame(plain)),
            "550000004c56010305706c61696e0204020000803f0300020000003f000080bf0200000040000080c001"
            "0200000041000080c10200000042000080c2020200000043000080c30200000044000080c40001076d65"
            "646963616c");

  LoraAdapter headed = GoldenAdapter("headed", {LoraTarget::kWq, LoraTarget::kWo});
  headed.set_scaling(0.75f);
  VisionTaskHead head;
  head.task = VisionTask::kObjectDetection;
  head.weight = Tensor(Shape(2, 3));
  for (int64_t i = 0; i < head.weight.NumElements(); ++i) {
    head.weight.data()[i] = 1.5f - static_cast<float>(i);
  }
  headed.SetTaskHead(std::move(head));
  headed.AddFusedDomain("traffic");
  EXPECT_EQ(Hex(AdapterFrame(headed)),
            "5e0000004c560103066865616465640204020000403f0200020000003f000080bf0200000040000080c0"
            "020200000041000080c10200000042000080c2010106060000c03f0000003f000000bf0000c0bf000020"
            "c0000060c0010774726166666963");
}

// --- Narrowed integers ------------------------------------------------------

// Re-encodes the zigzag varint at `offset` of a valid body with `value`, so a
// test can put a number on the wire that the message's C++ field cannot hold.
std::string WithVarintAt(const std::string& body, size_t offset, int64_t value) {
  WireReader old_field(body.data() + offset, body.size() - offset);
  int64_t old_value = 0;
  EXPECT_TRUE(old_field.SignedVarint(&old_value));
  const size_t old_size = body.size() - offset - old_field.remaining();
  WireWriter field;
  field.SignedVarint(value);
  return body.substr(0, offset) + field.data() + body.substr(offset + old_size);
}

template <typename M>
std::string BodyOf(const M& message) {
  const std::string payload = PayloadOf(EncodeMessageFrame(message));
  return DecodeEnvelope(payload).value().body;
}

template <typename M>
bool Decodes(const std::string& body) {
  return DecodeAs<M>(Envelope{M::kType, body}).ok();
}

// Every field the codec narrows to 32 bits must reject a value outside the
// field's type instead of truncating it: adapter_id = 2^32 + 1 would
// otherwise serve adapter 1.
TEST(MessagesTest, IntegersOutsideTheirFieldTypeAreRejected) {
  const int64_t kWide[] = {(int64_t{1} << 32) + 1, int64_t{1} << 31, -(int64_t{1} << 31) - 1};

  // One-byte id, adapter_id, max_new_tokens, use_task_head and eos_token put
  // the narrowed request fields at fixed offsets: adapter_id 1,
  // max_new_tokens 2, eos_token 4 and, after the f32 temperature, top_k 9.
  RequestMessage request;
  request.request.id = 1;
  request.request.adapter_id = 0;
  request.request.max_new_tokens = 4;
  request.request.eos_token = 1;
  request.request.sampling.top_k = 0;
  const std::string request_body = BodyOf(request);

  ResultMessage result;  // one-byte request_id and an empty token array
  result.result.request_id = 1;
  result.result.head_option = 0;
  const std::string result_body = BodyOf(result);

  HelloMessage hello;
  hello.replica = 0;
  hello.pid = 1;
  const std::string hello_body = BodyOf(hello);

  AckMessage ack;
  const std::string ack_body = BodyOf(ack);

  struct Field {
    const char* name;
    bool (*decodes)(const std::string&);
    const std::string* body;
    size_t offset;
  };
  const Field fields[] = {
      {"Request.adapter_id", &Decodes<RequestMessage>, &request_body, 1},
      {"Request.max_new_tokens", &Decodes<RequestMessage>, &request_body, 2},
      {"Request.eos_token", &Decodes<RequestMessage>, &request_body, 4},
      {"Request.top_k", &Decodes<RequestMessage>, &request_body, 9},
      {"Result.head_option", &Decodes<ResultMessage>, &result_body, 2},
      {"Hello.replica", &Decodes<HelloMessage>, &hello_body, 0},
      {"Ack.value", &Decodes<AckMessage>, &ack_body, 0},
  };
  for (const Field& field : fields) {
    SCOPED_TRACE(field.name);
    // The splice itself is sound: the widest values the field holds decode.
    EXPECT_TRUE(field.decodes(WithVarintAt(*field.body, field.offset, (int64_t{1} << 31) - 1)));
    EXPECT_TRUE(field.decodes(WithVarintAt(*field.body, field.offset, -(int64_t{1} << 31))));
    for (const int64_t wide : kWide) {
      EXPECT_FALSE(field.decodes(WithVarintAt(*field.body, field.offset, wide))) << wide;
    }
  }
}

// A flag is one byte holding 0 or 1; any other value is a corrupt frame.
TEST(MessagesTest, FlagBytesOtherThanZeroOrOneAreRejected) {
  RequestMessage request;  // one-byte id, adapter_id and max_new_tokens
  request.request.id = 1;
  std::string body = BodyOf(request);
  const size_t use_task_head = 3;
  ASSERT_EQ(body[use_task_head], 0);
  body[use_task_head] = 1;
  EXPECT_TRUE(Decodes<RequestMessage>(body));
  body[use_task_head] = 2;
  EXPECT_FALSE(Decodes<RequestMessage>(body));
}

// --- Channel over a real socketpair ----------------------------------------

TEST(ChannelTest, MessagesCrossASocketPairBothWays) {
  Result<std::pair<Fd, Fd>> pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok());
  Channel master(std::move(pair.value().first));
  Channel executor(std::move(pair.value().second));

  HelloMessage hello;
  hello.replica = 2;
  hello.pid = 777;
  ASSERT_TRUE(executor.SendMsg(hello).ok());
  Result<HelloMessage> hello_out = master.RecvMsg<HelloMessage>();
  ASSERT_TRUE(hello_out.ok());
  EXPECT_EQ(hello_out.value().replica, 2);
  EXPECT_EQ(hello_out.value().pid, 777);

  // A large frame (an adapter) survives the kernel's chunked delivery.
  const ModelConfig config = TinyConfig();
  Rng rng(0xcafeu);
  const LoraAdapter adapter =
      LoraAdapter::Random("channel-adapter", config.num_layers, config.d_model, 4, rng);
  WireWriter writer;
  AppendAdapter(writer, adapter);
  ASSERT_TRUE(master.Send(MessageType::kLoadAdapter, writer.Take()).ok());
  Result<Envelope> envelope = executor.Recv();
  ASSERT_TRUE(envelope.ok());
  ASSERT_EQ(envelope.value().type, MessageType::kLoadAdapter);
  WireReader reader(envelope.value().body);
  Result<LoraAdapter> decoded = ParseAdapter(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().name(), "channel-adapter");
}

// SendKvHandle writes the meta frame and one frame per page straight from
// the handle; each must carry exactly the bytes of the equivalent message.
TEST(ChannelTest, KvHandleCrossesASocketPairAsItsMessageFrames) {
  Result<std::pair<Fd, Fd>> pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok());
  Channel sender(std::move(pair.value().first));
  Channel receiving(std::move(pair.value().second));

  KvHandle handle;  // 9 computed tokens in blocks of 4: three pages
  handle.request_id = 42;
  handle.tokens = {5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  handle.computed = 9;
  handle.reused = 4;
  handle.generated = 1;
  handle.block_size = 4;
  handle.captured_hidden = {0.25f, -3.0f};
  handle.pages.resize(3);
  for (size_t i = 0; i < handle.pages.size(); ++i) {
    const float base = static_cast<float>(i);
    handle.pages[i].index = static_cast<int64_t>(i);
    handle.pages[i].data = {base + 0.5f, -0.0f, 1e-30f * (base + 1.0f), -base - 2.0f};
  }
  ASSERT_TRUE(SendKvHandle(sender, handle).ok());

  KvHandleReceiver receiver;
  Result<Envelope> meta = receiving.Recv();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(EncodeFrame(meta.value().type, meta.value().body),
            EncodeMessageFrame(KvHandleMetaMessage{handle}));
  ASSERT_TRUE(receiver.Accept(meta.value()));
  for (size_t i = 0; i < handle.pages.size(); ++i) {
    Result<Envelope> page = receiving.Recv();
    ASSERT_TRUE(page.ok()) << "page " << i;
    EXPECT_EQ(EncodeFrame(page.value().type, page.value().body),
              EncodeMessageFrame(KvPageOf(static_cast<int64_t>(i), handle.pages[i].data)))
        << "page " << i;
    ASSERT_TRUE(receiver.Accept(page.value())) << "page " << i;
  }

  const std::shared_ptr<KvHandle> back = receiver.Take(42);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->tokens, handle.tokens);
  EXPECT_EQ(back->computed, handle.computed);
  EXPECT_EQ(back->reused, handle.reused);
  EXPECT_EQ(back->generated, handle.generated);
  EXPECT_EQ(back->block_size, handle.block_size);
  EXPECT_EQ(back->captured_hidden, handle.captured_hidden);
  ASSERT_EQ(back->pages.size(), handle.pages.size());
  for (size_t i = 0; i < handle.pages.size(); ++i) {
    EXPECT_EQ(back->pages[i].index, handle.pages[i].index);
    ASSERT_EQ(back->pages[i].data.size(), handle.pages[i].data.size());
    EXPECT_EQ(std::memcmp(back->pages[i].data.data(), handle.pages[i].data.data(),
                          sizeof(float) * handle.pages[i].data.size()),
              0)
        << "page " << i;
  }
}

TEST(ChannelTest, PeerCloseSurfacesAsUnavailable) {
  Result<std::pair<Fd, Fd>> pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok());
  Channel reader(std::move(pair.value().first));
  {
    const Fd peer = std::move(pair.value().second);
    EXPECT_GE(peer.get(), 0);  // held, then closed on scope exit
  }
  Result<Envelope> envelope = reader.Recv();
  EXPECT_FALSE(envelope.ok());
  EXPECT_EQ(envelope.status().code(), StatusCode::kUnavailable);
}

TEST(ChannelTest, RecvTimeoutSurfacesAsDeadlineExceeded) {
  Result<std::pair<Fd, Fd>> pair = MakeSocketPair();
  ASSERT_TRUE(pair.ok());
  Channel reader(std::move(pair.value().first));
  Channel silent(std::move(pair.value().second));
  ASSERT_TRUE(reader.SetRecvTimeoutMs(20.0).ok());
  Result<Envelope> envelope = reader.Recv();
  EXPECT_FALSE(envelope.ok());
  EXPECT_EQ(envelope.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace net
}  // namespace vlora
