// RAII file-descriptor and socket helpers for the master/executor split.
//
// This is the only directory in the repo allowed to call the raw POSIX
// socket API (socket/accept/close and friends); the vlora_lint
// `raw-socket-fd` rule enforces it. Everything here hands descriptors out
// wrapped in net::Fd, which closes on destruction, so a connection can never
// leak across the error paths of a handshake.
//
// All sockets are created with CLOEXEC: the master forks an executor per
// process replica, and the child must not inherit the master's listeners or
// its siblings' connections across the exec.
//
// Errors are reported as Status, never exceptions: kUnavailable means the
// peer is gone (clean EOF / reset), kDeadlineExceeded a receive timeout, and
// kInternal an unexpected syscall failure.

#ifndef VLORA_SRC_NET_FD_H_
#define VLORA_SRC_NET_FD_H_

#include <cstddef>
#include <string>
#include <utility>

#include "src/common/status.h"

namespace vlora {
namespace net {

// Move-only owner of one file descriptor; closes it on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  // Gives up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  // Closes the current descriptor (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

enum class Transport {
  kUnix,  // AF_UNIX stream socket, addressed by filesystem path
  kTcp,   // AF_INET loopback-or-not stream socket
};

// A listen/connect endpoint. Text form: "unix:/path/to.sock" or
// "tcp:host:port" — what executor_main accepts on --connect.
struct SocketAddress {
  Transport transport = Transport::kUnix;
  std::string path;                // kUnix
  std::string host = "127.0.0.1";  // kTcp
  int port = 0;                    // kTcp; 0 asks the kernel for a free port

  static SocketAddress Unix(std::string socket_path);
  static SocketAddress Tcp(std::string host, int port);
  static Result<SocketAddress> Parse(const std::string& text);
  std::string ToString() const;
};

// Binds + listens. For kUnix a stale socket file at the path is removed
// first; for kTcp with port 0 use BoundTcpPort to learn the assigned port.
Result<Fd> Listen(const SocketAddress& address, int backlog = 8);

// The port the kernel bound a kTcp listener to (getsockname).
Result<int> BoundTcpPort(const Fd& listener);

// Blocks up to timeout_ms for one inbound connection; kDeadlineExceeded when
// nobody connected in time (e.g. the forked executor died before dialing).
Result<Fd> AcceptWithTimeout(const Fd& listener, double timeout_ms);

Result<Fd> Connect(const SocketAddress& address);

// Connected AF_UNIX pair, for in-process wire tests.
Result<std::pair<Fd, Fd>> MakeSocketPair();

// Writes the whole buffer (retrying short writes / EINTR). Uses MSG_NOSIGNAL
// so a dead peer surfaces as a Status, not a SIGPIPE that kills the master.
Status SendAll(const Fd& fd, const void* data, size_t size);

// Reads up to `size` bytes; at least one. kUnavailable on EOF/reset,
// kDeadlineExceeded when a receive timeout (SetRecvTimeout) elapsed first.
Result<size_t> RecvSome(const Fd& fd, void* data, size_t size);

// SO_RCVTIMEO; 0 restores blocking reads. Used to bound how long the master
// waits for a stopping executor's goodbye before escalating to SIGKILL.
Status SetRecvTimeout(const Fd& fd, double timeout_ms);

// Removes a unix socket file; best-effort (missing is fine).
void UnlinkSocketFile(const std::string& path);

}  // namespace net
}  // namespace vlora

#endif  // VLORA_SRC_NET_FD_H_
