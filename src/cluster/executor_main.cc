// The executor: one engine replica in its own process.
//
//   vlora_executor --connect=unix:/path.sock --replica=0
//   vlora_executor --connect=tcp:127.0.0.1:47001 --replica=1
//
// Spawned by ProcessReplica (or by hand; see vlora_master / README). Dials
// the master, announces itself (Hello), builds a ThreadReplica from the
// pushed Config, loads the streamed adapters, and then serves Requests until
// a Stop arrives — at which point it drains the engine, sends Goodbye, and
// exits 0. Any connection error or protocol violation exits non-zero: the
// master treats an executor that vanishes mid-run as dead and recovers the
// lost requests onto surviving replicas, so dying loudly is the correct
// failure mode here.
//
// Three threads touch the channel: the main loop (sole receiver), the
// replica worker (sends Result/Failure from the completion handlers), and
// the heartbeat thread. Channel::Send serialises whole frames, so their
// writes never interleave on the wire.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/replica.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/thread_pool.h"
#include "src/net/channel.h"
#include "src/net/fd.h"
#include "src/net/messages.h"

namespace vlora {
namespace {

int ExecutorMain(int argc, char** argv) {
  std::string connect;
  int replica_index = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg.rfind("--replica=", 0) == 0) {
      replica_index = std::atoi(arg.c_str() + 10);
    } else {
      std::fprintf(stderr, "vlora_executor: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (connect.empty() || replica_index < 0) {
    std::fprintf(stderr,
                 "usage: vlora_executor --connect=<unix:/path|tcp:host:port> --replica=<i>\n");
    return 2;
  }

  Result<net::SocketAddress> address = net::SocketAddress::Parse(connect);
  if (!address.ok()) {
    std::fprintf(stderr, "vlora_executor: bad --connect: %s\n",
                 address.status().message().c_str());
    return 2;
  }
  Result<net::Fd> fd = net::Connect(address.value());
  if (!fd.ok()) {
    std::fprintf(stderr, "vlora_executor: connect failed: %s\n",
                 fd.status().message().c_str());
    return 1;
  }
  net::Channel channel(std::move(fd.value()));

  net::HelloMessage hello;
  hello.replica = replica_index;
  hello.pid = static_cast<int64_t>(::getpid());
  if (!channel.SendMsg(hello).ok()) {
    return 1;
  }

  Result<net::ConfigMessage> config = channel.RecvMsg<net::ConfigMessage>();
  if (!config.ok()) {
    std::fprintf(stderr, "vlora_executor: bad config: %s\n",
                 config.status().message().c_str());
    return 1;
  }

  ReplicaOptions options;
  options.server = config.value().server;
  options.queue_capacity = config.value().queue_capacity;
  options.admission = AdmissionPolicy::kBlock;
  ThreadReplica replica(replica_index, config.value().model, options);

  replica.SetHandlers(
      [&](int /*replica*/, int64_t /*request_id*/) {
        // Results accumulate in the replica between handler invocations;
        // flush whatever is there. Channel::Send keeps frames atomic.
        for (EngineResult& result : replica.TakeResults()) {
          if (result.handle != nullptr) {
            // Prefill-only export: the handle's frames must precede the
            // Result frame that references them (Channel sends are FIFO).
            (void)net::SendKvHandle(channel, *result.handle);
          }
          net::ResultMessage message;
          message.result = std::move(result);
          (void)channel.SendMsg(message);
        }
      },
      [&](int /*replica*/, int64_t request_id, const Status& status) {
        net::FailureMessage message;
        message.request_id = request_id;
        message.code = status.code();
        message.message = status.message();
        (void)channel.SendMsg(message);
      });

  net::AckMessage config_ack;
  if (!channel.SendMsg(config_ack).ok()) {
    return 1;
  }

  // Setup phase: adapters stream in until Start flips us to serving.
  for (;;) {
    Result<net::Envelope> envelope = channel.Recv();
    if (!envelope.ok()) {
      return 1;
    }
    if (envelope.value().type == net::MessageType::kStart) {
      break;
    }
    net::AckMessage ack;
    if (envelope.value().type == net::MessageType::kLoadAdapter) {
      net::WireReader reader(envelope.value().body);
      Result<LoraAdapter> adapter = net::ParseAdapter(reader);
      if (!adapter.ok() || !reader.Done()) {
        ack.code = StatusCode::kInvalidArgument;
        ack.message = "malformed adapter";
      } else {
        ack.value = replica.AddAdapter(adapter.value());
      }
    } else if (envelope.value().type == net::MessageType::kPrewarm) {
      Result<net::PrewarmMessage> prewarm = net::DecodeAs<net::PrewarmMessage>(envelope.value());
      if (!prewarm.ok()) {
        ack.code = StatusCode::kInvalidArgument;
        ack.message = "malformed prewarm";
      } else {
        std::vector<int> ids(prewarm.value().adapter_ids.begin(),
                             prewarm.value().adapter_ids.end());
        replica.Prewarm(ids);
      }
    } else {
      std::fprintf(stderr, "vlora_executor: unexpected %s during setup\n",
                   net::MessageTypeName(envelope.value().type));
      return 1;
    }
    if (!channel.SendMsg(ack).ok()) {
      return 1;
    }
  }

  ThreadPool pool(1);
  replica.Start(&pool);

  // Forward the worker's liveness stamp every period; when the worker stalls
  // or the engine wedges, worker_ms freezes, the master stops beating and its
  // stall detector fires exactly as it would in-process.
  PublishedAtomic<bool> heartbeat_stop{false};
  std::thread heartbeat([&] {
    const auto period =
        std::chrono::duration<double, std::milli>(config.value().heartbeat_period_ms);
    while (!heartbeat_stop.Load()) {
      std::this_thread::sleep_for(period);
      net::HeartbeatMessage hb;
      hb.worker_ms = replica.HeartbeatMs();
      (void)channel.SendMsg(hb);
    }
  });

  net::KvHandleReceiver handles;  // resume requests' KvHandles
  int exit_code = 0;
  for (;;) {
    Result<net::Envelope> envelope = channel.Recv();
    if (!envelope.ok()) {
      // Master gone without a Stop: nothing to report results to.
      exit_code = 1;
      break;
    }
    if (envelope.value().type == net::MessageType::kStop) {
      replica.RequestStop();
      pool.WaitIdle();  // worker drains in-engine work, handlers flush it
      (void)channel.SendMsg(net::GoodbyeMessage{});
      break;
    }
    if (envelope.value().type == net::MessageType::kKvHandleMeta ||
        envelope.value().type == net::MessageType::kKvPage) {
      if (!handles.Accept(envelope.value())) {
        exit_code = 1;  // undecodable, page without meta, out of range, or a duplicate
        break;
      }
      continue;
    }
    if (envelope.value().type == net::MessageType::kRequest) {
      Result<net::RequestMessage> msg = net::DecodeAs<net::RequestMessage>(envelope.value());
      if (!msg.ok()) {
        exit_code = 1;
        break;
      }
      const int64_t id = msg.value().request.id;
      if (msg.value().has_resume) {
        msg.value().request.resume_handle = handles.Take(id);
        if (msg.value().request.resume_handle == nullptr) {
          // A resume whose handle never fully arrived is a protocol error:
          // dying loudly routes the request into the master's retry path.
          exit_code = 1;
          break;
        }
      }
      if (replica.Enqueue(std::move(msg.value().request), /*never_block=*/false) !=
          EnqueueResult::kAccepted) {
        net::FailureMessage failure;
        failure.request_id = id;
        failure.code = StatusCode::kUnavailable;
        failure.message = "executor replica refused the request";
        (void)channel.SendMsg(failure);
      }
      continue;
    }
    std::fprintf(stderr, "vlora_executor: unexpected %s while serving\n",
                 net::MessageTypeName(envelope.value().type));
    exit_code = 1;
    break;
  }

  heartbeat_stop.Publish(true);
  heartbeat.join();
  if (exit_code != 0) {
    replica.RequestStop();
    pool.WaitIdle();
  }
  return exit_code;
}

}  // namespace
}  // namespace vlora

int main(int argc, char** argv) { return vlora::ExecutorMain(argc, argv); }
