// Local-socket transport for hwprofd (DESIGN.md §14): one AF_UNIX listener
// carries both the ops query protocol (src/service/ops.h) and capture
// uploads from simulated machines.
//
// Framing is one request per connection:
//
//   ops query:   "<COMMAND ...>\n"                -> full ops response, close
//   upload:      "UPLOAD <tenant> <nbytes>\n"     -> "ACCEPT <ingest_id>\n"
//                followed by exactly nbytes of       or "DROP <reason> <id>\n"
//                raw capture payload (text or hwpb)
//
// The reply line for an upload always carries the assigned ingest ID, so a
// simulated machine can later ask `INGEST <id>` and see its own capture ->
// decode -> summary trail.
//
// One thread serves every connection from a poll() loop; each must finish
// within 10 s of accept. Submit() runs on that thread, so with workers=0
// the decode does too and other connections wait. All other concurrency
// control lives in IngestService.

#ifndef HWPROF_SRC_SERVICE_OPS_SOCKET_H_
#define HWPROF_SRC_SERVICE_OPS_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "src/service/ingest.h"

namespace hwprof {
namespace service {

class OpsServer {
 public:
  // Does not bind; call Start(). `service` must outlive the server.
  OpsServer(IngestService& service, std::string socket_path);
  ~OpsServer();
  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  // Binds, listens and spawns the serving thread. False (with last_error set)
  // when the socket cannot be created — e.g. the path is too long for
  // sockaddr_un or is already bound.
  bool Start();

  // Stops the serving thread within 50 ms (plus any Submit() under way),
  // closes open connections unanswered, unlinks the socket. Idempotent.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }
  const std::string& last_error() const { return last_error_; }

 private:
  void Serve();

  IngestService& service_;
  std::string socket_path_;
  std::string last_error_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

// Client side: connects to `socket_path`, sends one ops command line,
// half-closes and returns the full response (reads to EOF). Empty string +
// *error set on connect/IO failure.
std::string OpsQuery(const std::string& socket_path, const std::string& command,
                     std::string* error);

// Client side: uploads one capture payload for `tenant`. Returns true when
// the server answered ACCEPT; the parsed ingest ID lands in *ingest_id and,
// on a DROP, the typed reason text in *drop_reason.
bool OpsUpload(const std::string& socket_path, const std::string& tenant,
               const std::string& payload, std::uint64_t* ingest_id,
               std::string* drop_reason, std::string* error);

}  // namespace service
}  // namespace hwprof

#endif  // HWPROF_SRC_SERVICE_OPS_SOCKET_H_
