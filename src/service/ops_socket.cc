#include "src/service/ops_socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "src/base/strings.h"
#include "src/service/ops.h"

namespace hwprof {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

// Each connection must be answered within this long of its accept. The
// deadline is absolute, so a client that trickles bytes cannot stretch it.
constexpr auto kConnDeadline = std::chrono::seconds(10);
// The longest request line; a longer one closes the connection unanswered.
constexpr std::size_t kMaxLineBytes = 4096;

// One connection: the request line, then an upload's payload (or, after an
// oversize DROP, input discarded until EOF), then the reply and close.
struct Conn {
  Conn(int fd, Clock::time_point deadline) : fd(fd), deadline(deadline) {}

  enum Phase { kLine, kPayload, kDiscard, kReply } phase = kLine;
  int fd;
  Clock::time_point deadline;
  bool eof = false;
  std::string in;  // the request line, then the payload received so far
  std::string tenant;
  std::size_t nbytes = 0;  // the payload size the UPLOAD header declared
  std::string out;
  std::size_t sent = 0;  // bytes of `out` already sent

  bool Reading() const { return !eof && phase != kReply; }
};

void Reply(Conn* c, std::string reply) {
  c->out = std::move(reply);
  c->phase = Conn::kReply;
}

std::string UploadReply(const SubmitResult& r) {
  const auto id = static_cast<unsigned long long>(r.ingest_id);
  return r.accepted ? StrFormat("ACCEPT %llu\n", id)
                    : StrFormat("DROP %s %llu\n", DropReasonName(r.reason), id);
}

// Answers an ops command or a rejected UPLOAD header; a good header moves
// the connection on to its payload.
void StartRequest(IngestService& service, const std::string& line, Conn* c) {
  if (!StartsWith(line, "UPLOAD ")) {
    Reply(c, HandleOpsCommand(service, line));
    return;
  }
  // "UPLOAD <tenant> <nbytes>" + nbytes of raw payload.
  std::vector<std::string_view> words;
  for (std::string_view w : Split(line, ' ')) {
    if (!w.empty()) {
      words.push_back(w);
    }
  }
  std::uint64_t nbytes = 0;
  if (words.size() != 3 || !ParseUint(words[2], &nbytes)) {
    Reply(c, "ERR upload header must be: UPLOAD <tenant> <nbytes>\n");
    return;
  }
  if (nbytes > service.max_upload_bytes()) {
    // Reply from the header alone, so a lying or huge header never drives
    // an nbytes-sized allocation; then discard the body until EOF, so the
    // client finishes its write and reads the reply.
    c->out = UploadReply(service.RejectOversize(std::string(words[1]), nbytes));
    c->phase = Conn::kDiscard;
    return;
  }
  c->phase = Conn::kPayload;
  c->tenant = std::string(words[1]);
  c->nbytes = static_cast<std::size_t>(nbytes);
  c->in.reserve(c->nbytes);
}

// Reads what the peer sent and answers once the request is complete. False
// when the connection must close unanswered: a read error, EOF mid-line or
// an overlong line.
bool Receive(IngestService& service, Conn* c) {
  char buf[64 * 1024];
  const std::size_t want = c->phase == Conn::kPayload
                               ? std::min(sizeof(buf), c->nbytes - c->in.size())
                               : sizeof(buf);
  const ssize_t n = ::read(c->fd, buf, want);
  if (n < 0) {
    return errno == EINTR || errno == EAGAIN;
  }
  c->eof = n == 0;
  if (c->phase == Conn::kDiscard) {
    return true;
  }
  const std::size_t scanned = c->in.size();
  c->in.append(buf, static_cast<std::size_t>(n));
  if (c->phase == Conn::kLine) {
    const std::size_t nl = c->in.find('\n', scanned);
    if (nl == std::string::npos || nl > kMaxLineBytes) {
      return nl == std::string::npos && !c->eof &&
             c->in.size() <= kMaxLineBytes;
    }
    const std::string line = c->in.substr(0, nl);
    c->in.erase(0, nl + 1);
    StartRequest(service, line, c);
    if (c->phase != Conn::kPayload) {
      return true;
    }
  }
  if (c->in.size() >= c->nbytes) {
    c->in.resize(c->nbytes);
    Reply(c, UploadReply(service.Submit(c->tenant, std::move(c->in))));
  } else if (c->eof) {
    Reply(c, "ERR short upload payload\n");
  }
  return true;
}

// Sends data from *off on until it is all sent, a non-blocking socket is
// full, or an error (false; a vanished peer is an error like any other).
bool Send(int fd, std::string_view data, std::size_t* off) {
  while (*off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + *off, data.size() - *off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return errno == EAGAIN;
    }
    *off += static_cast<std::size_t>(n);
  }
  return true;
}

int ConnectTo(const std::string& socket_path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long";
    return -1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = StrFormat("socket: %s", std::strerror(errno));
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    *error = StrFormat("connect %s: %s", socket_path.c_str(),
                       std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

// One client exchange: sends `head` and `body`, half-closes and reads the
// reply to EOF. Empty string + *error set on connect/IO failure.
std::string Exchange(const std::string& socket_path, std::string_view head,
                     std::string_view body, std::string* error) {
  error->clear();
  const int fd = ConnectTo(socket_path, error);
  if (fd < 0) {
    return "";
  }
  std::size_t sent[2] = {0, 0};
  if (!Send(fd, head, &sent[0]) || !Send(fd, body, &sent[1])) {
    *error = StrFormat("write: %s", std::strerror(errno));
    ::close(fd);
    return "";
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  for (ssize_t n = 0; (n = ::read(fd, buf, sizeof(buf))) != 0;) {
    if (n > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  ::close(fd);
  return reply;
}

}  // namespace

OpsServer::OpsServer(IngestService& service, std::string socket_path)
    : service_(service), socket_path_(std::move(socket_path)) {}

OpsServer::~OpsServer() { Stop(); }

bool OpsServer::Start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    last_error_ = "socket path too long";
    return false;
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    last_error_ = StrFormat("socket: %s", std::strerror(errno));
    return false;
  }
  ::unlink(socket_path_.c_str());  // stale path from a crashed daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    last_error_ = StrFormat("bind %s: %s", socket_path_.c_str(),
                            std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 128) < 0) {
    last_error_ = StrFormat("listen: %s", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void OpsServer::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
  }
}

void OpsServer::Serve() {
  std::vector<Conn> conns;
  std::vector<pollfd> fds;
  // False after accept() ran out of descriptors or memory, when polling the
  // still-readable listener would spin; a close or an idle poll re-arms it.
  bool accepting = true;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // fds[0] is the listener (poll skips fd -1); fds[i + 1] is conns[i].
    fds.assign(1, pollfd{accepting ? listen_fd_ : -1, POLLIN, 0});
    for (const Conn& c : conns) {
      const int events = (c.Reading() ? POLLIN : 0) |
                         (c.sent < c.out.size() ? POLLOUT : 0);
      fds.push_back(pollfd{c.fd, static_cast<short>(events), 0});
    }
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/50) == 0) {
      accepting = true;
    }
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      bool open = now < c.deadline;
      if (open && c.Reading() && fds[i + 1].revents != 0) {
        open = Receive(service_, &c);
      }
      if (!open || !Send(c.fd, c.out, &c.sent) ||
          (c.sent == c.out.size() &&
           (c.phase == Conn::kReply || (c.phase == Conn::kDiscard && c.eof)))) {
        ::close(c.fd);
        c.fd = -1;
        accepting = true;
      }
    }
    std::erase_if(conns, [](const Conn& c) { return c.fd < 0; });
    while ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        accepting = errno == EAGAIN || errno == EINTR || errno == ECONNABORTED;
        break;
      }
      conns.emplace_back(fd, Clock::now() + kConnDeadline);
    }
  }
  for (const Conn& c : conns) {
    ::close(c.fd);
  }
}

std::string OpsQuery(const std::string& socket_path, const std::string& command,
                     std::string* error) {
  std::string response = Exchange(socket_path, command + "\n", {}, error);
  if (response.empty() && error->empty()) {
    *error = "empty response";
  }
  return response;
}

bool OpsUpload(const std::string& socket_path, const std::string& tenant,
               const std::string& payload, std::uint64_t* ingest_id,
               std::string* drop_reason, std::string* error) {
  *ingest_id = 0;
  drop_reason->clear();
  const std::string header =
      StrFormat("UPLOAD %s %zu\n", tenant.c_str(), payload.size());
  const std::string response = Exchange(socket_path, header, payload, error);
  if (!error->empty()) {
    return false;
  }
  const std::size_t nl = response.find('\n');
  if (nl == std::string::npos) {
    *error = "no reply";
    return false;
  }
  const std::string reply = response.substr(0, nl);
  std::vector<std::string_view> words;
  for (std::string_view w : Split(reply, ' ')) {
    if (!w.empty()) {
      words.push_back(w);
    }
  }
  if (words.size() == 2 && words[0] == "ACCEPT" &&
      ParseUint(words[1], ingest_id)) {
    return true;
  }
  if (words.size() == 3 && words[0] == "DROP" &&
      ParseUint(words[2], ingest_id)) {
    *drop_reason = std::string(words[1]);
    return false;
  }
  *error = StrFormat("unexpected reply: %s", reply.c_str());
  return false;
}

}  // namespace service
}  // namespace hwprof
