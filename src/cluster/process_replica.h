// ProcessReplica: the replica front end (replica.h) over a forked executor.
//
// The front end — admission, the ingress queue, the in-service table, the
// counters, StealIngress, the completion and fail-over paths — is the
// Replica base class; this backend only decides how a dequeued request
// runs: on the wire, to a `vlora_executor` process that hosts a
// ThreadReplica of its own.
//
// The constructor binds a listening socket (Unix-domain by default, TCP
// loopback on request), forks the executor with --connect/--replica flags,
// accepts its connection, and runs the lock-step handshake
// (Hello <- / Config -> Ack <-). Setup calls (AddAdapter / Prewarm) are
// synchronous request/Ack exchanges on the calling thread; after Start the
// connection switches to pipelined mode: PumpIngress moves queued requests
// into an inflight window of `max_inflight` and ships them (the executor's
// own queue therefore never holds more than the window), and a reader loop
// posted to the cluster ThreadPool consumes Result / Failure / Heartbeat /
// Goodbye frames, assembles KvHandles, and feeds the front end's completion
// and failure paths.
//
// Failure semantics — suspicion before conviction. When the reader hits
// connection loss (a real SIGKILL of the executor) while requests are
// outstanding, the replica does NOT immediately fail over: it marks itself
// lost (Enqueue refuses) and its heartbeat freezes, so the supervisor sees
// exactly the stalled-replica signature (depth > 0, stale heartbeat) and
// runs the normal quarantine path. StealIngress drains the master-side queue
// and then convicts: FailOver marks the replica dead and fails over the
// inflight window through the failure handler, feeding the existing retry
// machinery. Connection loss with nothing outstanding (clean Goodbye or idle
// crash) convicts immediately — there is no work to recover, so no
// quarantine detour.
//
// Heartbeats ride the wire: the executor periodically reports its worker
// loop's liveness stamp, and the master beats (publishes its own receive
// time) only when that stamp moved. A stalled executor worker therefore
// freezes the heartbeat exactly as a stalled ThreadReplica does, and the
// staleness clock never compares timestamps across processes.

#ifndef VLORA_SRC_CLUSTER_PROCESS_REPLICA_H_
#define VLORA_SRC_CLUSTER_PROCESS_REPLICA_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/replica.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/net/channel.h"
#include "src/net/fd.h"

namespace vlora {

// Wire tuning; admission, queue bound, server options and the fault
// injector come from the shared ReplicaOptions.
struct ProcessReplicaOptions {
  std::string executor_path;  // empty -> DefaultExecutorPath()
  net::Transport transport = net::Transport::kUnix;
  // Requests allowed on the wire at once; the rest wait in the master-side
  // ingress queue where StealIngress can still reclaim them.
  int64_t max_inflight = 8;
  double heartbeat_period_ms = 20.0;  // executor's reporting period
};

class ProcessReplica : public Replica {
 public:
  // Spawns and handshakes the executor; aborts via VLORA_CHECK on spawn or
  // protocol failure (construction happens before any workload is accepted,
  // so there is nothing to recover). The fault injector, if any, only
  // drives kKillProcess faults.
  ProcessReplica(int index, const ModelConfig& config, const ReplicaOptions& options,
                 const ProcessReplicaOptions& process);
  ~ProcessReplica() override;

  int AddAdapter(const LoraAdapter& adapter) override;
  void Prewarm(const std::vector<int>& adapter_ids) override;
  void Start(ThreadPool* pool) override;

  // Executor pid, for tests that deliver a real SIGKILL from outside.
  pid_t executor_pid() const { return pid_; }

  // Resolves the executor binary: $VLORA_EXECUTOR if set, otherwise probes
  // paths relative to /proc/self/exe (same directory, then the build tree's
  // src/cluster/). Empty string when nothing is found.
  static std::string DefaultExecutorPath();
  static bool ExecutorAvailable() { return !DefaultExecutorPath().empty(); }

 private:
  void SpawnAndHandshake(const ModelConfig& config, const ServerOptions& server,
                         const ProcessReplicaOptions& process);
  // Moves queued requests into the inflight window (up to max_inflight) and
  // ships the frames. Sends happen outside mutex_; a send failure is ignored
  // here because the reader observes the same broken connection and owns the
  // recovery path.
  void PumpIngress() override VLORA_EXCLUDES(mutex_);
  // Sends Stop and bounds the reader's wait for the Goodbye.
  void OnStopRequested() override VLORA_EXCLUDES(mutex_);
  void ReaderLoop() VLORA_EXCLUDES(mutex_);
  // Connection gone: reap the executor and mark the replica lost. With
  // requests outstanding the supervisor's quarantine convicts (see the file
  // comment); with nothing outstanding, convicts immediately.
  void HandleConnectionLost() VLORA_EXCLUDES(mutex_);
  void KillExecutor() VLORA_EXCLUDES(child_mutex_);         // SIGKILL if unreaped
  void ReapChild(bool block) VLORA_EXCLUDES(child_mutex_);  // waitpid bookkeeping

  const int64_t max_inflight_;
  bool reader_started_ = false;  // set in Start, read in the destructor

  std::string socket_path_;  // unix transport: unlinked on destruction
  std::unique_ptr<net::Channel> channel_;

  // Guards the child pid's kill/reap lifecycle (reader, supervisor, and
  // destructor can all race to it). Terminal lock: nothing is acquired
  // under it.
  Mutex child_mutex_{Rank::kLeaf, "ProcessReplica::child_mutex_"};
  pid_t pid_ = -1;
  bool child_reaped_ VLORA_GUARDED_BY(child_mutex_) = false;

  // The reader thread publishes its final drain here before it exits.
  PublishedAtomic<bool> reader_done_{false};
};

}  // namespace vlora

#endif  // VLORA_SRC_CLUSTER_PROCESS_REPLICA_H_
