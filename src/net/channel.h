// One framed, bidirectional connection between the master and an executor.
//
// Threading contract:
//   * Send is safe from any thread — frames are written atomically under
//     send_mutex_ (Rank::kLeaf: a terminal lock; a sender may hold any
//     higher-ranked lock, though the cluster code deliberately never holds
//     ProcessReplica::mutex_ across a Send).
//   * Recv is single-consumer: exactly one reader thread (the master's
//     per-replica reader loop, or the executor's main loop) calls it. It
//     owns the frame assembler and takes no lock.
//
// A Recv error is terminal for the connection: kUnavailable (peer gone),
// kDeadlineExceeded (SO_RCVTIMEO elapsed — only armed during shutdown
// grace), or kInvalidArgument/kOutOfRange (corrupt frame). Callers route all
// of them into the same connection-lost path.

#ifndef VLORA_SRC_NET_CHANNEL_H_
#define VLORA_SRC_NET_CHANNEL_H_

#include <map>
#include <memory>
#include <string>

#include "src/common/sync.h"
#include "src/net/fd.h"
#include "src/net/messages.h"
#include "src/net/wire.h"

namespace vlora {
namespace net {

class Channel {
 public:
  explicit Channel(Fd fd) : fd_(std::move(fd)) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Frames and writes one message; the whole frame is sent under the send
  // lock so concurrent senders (worker completions vs heartbeats) never
  // interleave bytes.
  Status Send(MessageType type, const std::string& body) VLORA_EXCLUDES(send_mutex_);

  template <typename M>
  Status SendMsg(const M& message) VLORA_EXCLUDES(send_mutex_) {
    return Send(M::kType, EncodeBody(message));
  }

  // Blocks for the next complete frame and decodes its envelope. Single
  // consumer only; see the header comment.
  Result<Envelope> Recv();

  // Recv + type check + full-body parse, for the lock-step setup phase.
  template <typename M>
  Result<M> RecvMsg() {
    Result<Envelope> envelope = Recv();
    if (!envelope.ok()) {
      return envelope.status();
    }
    return DecodeAs<M>(envelope.value());
  }

  // Bounds how long the reader blocks in Recv (shutdown grace). 0 restores
  // fully blocking reads.
  Status SetRecvTimeoutMs(double timeout_ms) { return SetRecvTimeout(fd_, timeout_ms); }

  const Fd& fd() const { return fd_; }

 private:
  Fd fd_;
  Mutex send_mutex_{Rank::kLeaf, "Channel::send_mutex_"};
  FrameAssembler assembler_;  // reader-thread-only
};

// Ships a KvHandle as its KvHandleMeta + KvPage frame sequence — the sender
// half of the disagg handoff, shared by the master (resume requests) and the
// executor (exported prefill state). The frames go out back-to-back but not
// as an atomic group; receivers key assembly by request_id, so frames from
// concurrent senders (heartbeats, other requests) interleaving between them
// are harmless. Returns the first send error.
Status SendKvHandle(Channel& channel, const KvHandle& handle);

// The receiver half, shared by the same two ends: assembles KvHandles from
// their frames, keyed by request_id. Single-threaded, like Channel::Recv.
class KvHandleReceiver {
 public:
  // Takes a KvHandleMeta or KvPage frame. Returns false on a protocol error:
  // an undecodable frame, a page without its meta, a page index at or above
  // the meta's page count, or a page that already arrived.
  [[nodiscard]] bool Accept(const Envelope& envelope);
  // Moves out the handle for `request_id` once every page has arrived; null
  // for an unknown or still incomplete handle.
  std::shared_ptr<KvHandle> Take(int64_t request_id);

 private:
  std::map<int64_t, std::shared_ptr<KvHandle>> assembling_;
};

}  // namespace net
}  // namespace vlora

#endif  // VLORA_SRC_NET_CHANNEL_H_
