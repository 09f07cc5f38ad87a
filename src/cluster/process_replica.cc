#include "src/cluster/process_replica.h"

#include <limits.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "src/common/trace.h"

namespace vlora {
namespace {

// Distinguishes the unix socket files of replicas created back-to-back (a
// destroyed replica's path may not be unlinked yet when its successor binds).
// Only uniqueness matters.
constinit RelaxedAtomic<int64_t> g_socket_sequence{0};

constexpr double kConnectTimeoutMs = 15000.0;  // executor dial-back after fork
constexpr double kStopGraceMs = 2000.0;        // wait for Goodbye before SIGKILL

std::string ExeDirectory() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    return std::string();
  }
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool Executable(const std::string& path) {
  return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

}  // namespace

std::string ProcessReplica::DefaultExecutorPath() {
  const char* env = ::getenv("VLORA_EXECUTOR");  // vlora-lint: allow(getenv-outside-init) runs once, at replica spawn; the name describes the probe, not the phase
  if (env != nullptr && Executable(env)) {
    return env;
  }
  const std::string dir = ExeDirectory();
  if (dir.empty()) {
    return std::string();
  }
  // Probe relative to the running binary: a test lives in build/tests/, a
  // bench in build/bench/, the executor itself in build/src/cluster/.
  const std::string candidates[] = {
      dir + "/vlora_executor",
      dir + "/../src/cluster/vlora_executor",
      dir + "/../../src/cluster/vlora_executor",
  };
  for (const std::string& candidate : candidates) {
    if (Executable(candidate)) {
      return candidate;
    }
  }
  return std::string();
}

ProcessReplica::ProcessReplica(int index, const ModelConfig& config,
                               const ReplicaOptions& options,
                               const ProcessReplicaOptions& process)
    : Replica(index, ReplicaBackend::kProcess, options), max_inflight_(process.max_inflight) {
  VLORA_CHECK(max_inflight_ >= 1);
  SpawnAndHandshake(config, options.server, process);
}

void ProcessReplica::SpawnAndHandshake(const ModelConfig& config, const ServerOptions& server,
                                       const ProcessReplicaOptions& process) {
  std::string executor = process.executor_path;
  if (executor.empty()) {
    executor = DefaultExecutorPath();
  }
  VLORA_CHECK(!executor.empty());  // see ExecutorAvailable()

  net::SocketAddress address;
  if (process.transport == net::Transport::kUnix) {
    socket_path_ = "/tmp/vlora-exec-" + std::to_string(::getpid()) + "-" +
                   std::to_string(index_) + "-" +
                   std::to_string(g_socket_sequence.FetchAdd(1)) +
                   ".sock";
    address = net::SocketAddress::Unix(socket_path_);
  } else {
    address = net::SocketAddress::Tcp("127.0.0.1", 0);
  }
  Result<net::Fd> listener = net::Listen(address);
  VLORA_CHECK(listener.ok());
  if (process.transport == net::Transport::kTcp) {
    Result<int> port = net::BoundTcpPort(listener.value());
    VLORA_CHECK(port.ok());
    address.port = port.value();
  }

  // argv is fully built before fork: between fork and exec only
  // async-signal-safe calls are allowed in a threaded parent.
  const std::string connect_arg = "--connect=" + address.ToString();
  const std::string replica_arg = "--replica=" + std::to_string(index_);
  char* const argv[] = {const_cast<char*>(executor.c_str()),
                        const_cast<char*>(connect_arg.c_str()),
                        const_cast<char*>(replica_arg.c_str()), nullptr};
  const pid_t pid = ::fork();
  VLORA_CHECK(pid >= 0);
  if (pid == 0) {
    ::execv(executor.c_str(), argv);
    ::_exit(127);  // exec failed; the parent sees it as a connect timeout
  }
  pid_ = pid;

  Result<net::Fd> accepted = net::AcceptWithTimeout(listener.value(), kConnectTimeoutMs);
  VLORA_CHECK(accepted.ok());
  channel_ = std::make_unique<net::Channel>(std::move(accepted.value()));

  Result<net::HelloMessage> hello = channel_->RecvMsg<net::HelloMessage>();
  VLORA_CHECK(hello.ok());
  VLORA_CHECK(hello.value().replica == index_);
  VLORA_CHECK(hello.value().pid == static_cast<int64_t>(pid_));

  // The executor's own queue only ever holds the inflight window; the big
  // master-side queue is what StealIngress can still reclaim.
  const net::ConfigMessage cfg{.model = config,
                               .server = server,
                               .queue_capacity = max_inflight_,
                               .heartbeat_period_ms = process.heartbeat_period_ms};
  VLORA_CHECK(channel_->SendMsg(cfg).ok());
  Result<net::AckMessage> ack = channel_->RecvMsg<net::AckMessage>();
  VLORA_CHECK(ack.ok());
  VLORA_CHECK(ack.value().code == StatusCode::kOk);
}

ProcessReplica::~ProcessReplica() {
  RequestStop();
  if (reader_started_) {
    // The reader owns the connection teardown; its exit is bounded by the
    // stop grace (SO_RCVTIMEO armed in OnStopRequested) plus SIGKILL
    // escalation.
    VLORA_BLOCKING_REGION(nullptr, "ProcessReplica::~ProcessReplica");
    while (!reader_done_.Load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  KillExecutor();
  ReapChild(/*block=*/true);
  if (!socket_path_.empty()) {
    net::UnlinkSocketFile(socket_path_);
  }
}

int ProcessReplica::AddAdapter(const LoraAdapter& adapter) {
  CheckSetupPhase();
  net::WireWriter writer;
  net::AppendAdapter(writer, adapter);
  VLORA_CHECK(channel_->Send(net::MessageType::kLoadAdapter, writer.Take()).ok());
  Result<net::AckMessage> ack = channel_->RecvMsg<net::AckMessage>();
  VLORA_CHECK(ack.ok());
  VLORA_CHECK(ack.value().code == StatusCode::kOk);
  return ack.value().value;
}

void ProcessReplica::Prewarm(const std::vector<int>& adapter_ids) {
  CheckSetupPhase();
  net::PrewarmMessage message;
  message.adapter_ids.assign(adapter_ids.begin(), adapter_ids.end());
  VLORA_CHECK(channel_->SendMsg(message).ok());
  Result<net::AckMessage> ack = channel_->RecvMsg<net::AckMessage>();
  VLORA_CHECK(ack.ok());
  VLORA_CHECK(ack.value().code == StatusCode::kOk);
}

void ProcessReplica::Start(ThreadPool* pool) {
  VLORA_CHECK(pool != nullptr);
  BeginServing();
  VLORA_CHECK(channel_->SendMsg(net::StartMessage{}).ok());
  Beat();
  reader_started_ = true;
  pool->Post([this] { ReaderLoop(); });
}

void ProcessReplica::PumpIngress() {
  std::vector<EngineRequest> to_send;
  {
    MutexLock lock(&mutex_);
    if (lost_ || !running_) {
      return;
    }
    TakeIngressLocked(max_inflight_, &to_send);
  }
  for (EngineRequest& request : to_send) {
    if (request.resume_handle != nullptr) {
      // Decode-stage resume: the KvHandle's frames must precede the Request
      // frame that references them; Channel sends are whole-frame FIFO, so
      // the executor finishes assembly before it sees the request.
      (void)net::SendKvHandle(*channel_, *request.resume_handle);
    }
    net::RequestMessage message;
    message.request = std::move(request);
    // A send failure is deliberately ignored: the reader sees the same
    // broken connection and owns the recovery path; the request stays in
    // service and is failed over at conviction.
    (void)channel_->SendMsg(message);
  }
}

void ProcessReplica::ReaderLoop() {
  trace::SetCurrentReplica(index_);
  // Recv is single-consumer, so the receiver is reader-thread-local.
  net::KvHandleReceiver handles;
  double worker_ms = -1.0;  // the executor's last reported worker stamp
  for (;;) {
    Result<net::Envelope> envelope = channel_->Recv();
    if (!envelope.ok()) {
      // EOF, a broken socket, or the stop grace elapsing without a Goodbye.
      HandleConnectionLost();
      reader_done_.Publish(true);
      return;
    }
    switch (envelope.value().type) {
      case net::MessageType::kHeartbeat: {
        Result<net::HeartbeatMessage> hb = net::DecodeAs<net::HeartbeatMessage>(envelope.value());
        if (!hb.ok()) {
          break;
        }
        // Beat only when the executor's worker moved, so a stalled worker
        // freezes the stamp exactly like a stalled ThreadReplica's. Executor
        // stamps are compared only with each other; what is published is
        // the local receive time.
        if (hb.value().worker_ms != worker_ms) {
          worker_ms = hb.value().worker_ms;
          Beat();
        }
        continue;
      }
      case net::MessageType::kKvHandleMeta:
      case net::MessageType::kKvPage:
        if (!handles.Accept(envelope.value())) {
          break;
        }
        continue;
      case net::MessageType::kResult: {
        Result<net::ResultMessage> msg = net::DecodeAs<net::ResultMessage>(envelope.value());
        if (!msg.ok()) {
          break;
        }
        EngineResult result = std::move(msg.value().result);
        if (msg.value().expects_handle) {
          result.handle = handles.Take(result.request_id);
          if (result.handle == nullptr) {
            break;  // result references a handle we never fully received
          }
          // The executor's engine emitted kPrefillDone in the child process;
          // republish it here so the master's tracer sees the whole lifecycle.
          trace::EmitPrefillDone(result.request_id, /*adapter=*/-1, result.prefill_tokens,
                                 result.reused_tokens);
        }
        const int64_t served = Complete(std::span<EngineResult>(&result, 1));
        if (fault_ != nullptr && fault_->ShouldKillProcess(index_, served)) {
          // A real SIGKILL, not a simulated death: the executor vanishes and
          // the master must recover through the same quarantine path a
          // genuine crash would take.
          KillExecutor();
        }
        PumpIngress();
        continue;
      }
      case net::MessageType::kFailure: {
        Result<net::FailureMessage> msg = net::DecodeAs<net::FailureMessage>(envelope.value());
        if (!msg.ok()) {
          break;
        }
        FailInService(msg.value().request_id, msg.value().ToStatus());
        PumpIngress();
        continue;
      }
      case net::MessageType::kGoodbye:
        continue;  // the next Recv returns the terminal EOF
      default:
        break;  // protocol error: fall through to connection-lost
    }
    // Undecodable or unexpected frame: the connection is no longer trusted.
    HandleConnectionLost();
    reader_done_.Publish(true);
    return;
  }
}

void ProcessReplica::HandleConnectionLost() {
  // Whatever broke the connection, the executor is no use to us any more.
  KillExecutor();
  ReapChild(/*block=*/false);
  bool defer = false;
  {
    MutexLock lock(&mutex_);
    lost_ = true;
    // Suspicion before conviction: with work outstanding, let the
    // supervisor's stall-quarantine observe the loss; its StealIngress
    // convicts. With nothing outstanding there is nothing to recover, so
    // convict on the spot.
    defer = !stop_requested_ && DepthLocked() > 0;
  }
  space_cv_.NotifyAll();  // blocked submitters re-check and refuse
  if (!defer) {
    FailOver("lost");
  }
}

void ProcessReplica::KillExecutor() {
  MutexLock lock(&child_mutex_);
  if (pid_ > 0 && !child_reaped_) {
    ::kill(pid_, SIGKILL);
  }
}

void ProcessReplica::ReapChild(bool block) {
  MutexLock lock(&child_mutex_);
  if (pid_ <= 0 || child_reaped_) {
    return;
  }
  int status = 0;
  if (block) {
    // Quick: only reached after SIGKILL or a observed executor exit.
    if (::waitpid(pid_, &status, 0) == pid_) {
      child_reaped_ = true;
    }
  } else if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    child_reaped_ = true;
  }
}

void ProcessReplica::OnStopRequested() {
  bool connected = false;
  {
    MutexLock lock(&mutex_);
    connected = !lost_;  // conviction always follows a lost connection
  }
  if (connected) {
    (void)channel_->SendMsg(net::StopMessage{});
    // Bound the reader's wait for the Goodbye; on expiry it escalates to
    // SIGKILL (see ReaderLoop).
    (void)channel_->SetRecvTimeoutMs(kStopGraceMs);
  }
}

}  // namespace vlora
