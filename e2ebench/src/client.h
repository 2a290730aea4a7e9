#ifndef E2EBENCH_CLIENT_H_
#define E2EBENCH_CLIENT_H_

// The load-generating side: the qagview_server child process, and open- and
// closed-loop HTTP drivers over server::HttpFetch that record, per request,
// when it was due, when it was actually sent and when its answer arrived.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "inputs.h"
#include "server/server.h"
#include "service/api.h"

namespace e2ebench {

/// qagview_server at its default flags (plus an ephemeral port), serving
/// the seed's two datasets. The destructor kills and reaps a server that
/// was not stopped.
class ServerProcess {
 public:
  /// Spawns the server and blocks until it listens.
  static Result<std::unique_ptr<ServerProcess>> Start(const std::string& binary,
                                                      const std::string& input_dir);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// VmHWM of the server, in MB.
  double PeakRssMb() const;
  /// User + system CPU time the server consumed so far, in seconds.
  double CpuSeconds() const;

  /// What the server printed after its graceful drain.
  struct Final {
    qagview::server::ServerStats transport;
    qagview::service::ServiceStats service;
  };
  /// SIGTERM, drain, reap; parses the counters the server prints on exit.
  Result<Final> Stop();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
  std::string log_;
};

/// One request as the load generator saw it. Times are milliseconds since
/// the start of the phase.
struct Sample {
  int index = 0;        // position in the phase's request list
  double due_ms = 0.0;  // scheduled send time (open loop) = sent_ms (closed)
  double sent_ms = 0.0;
  double done_ms = 0.0;
  int status = 0;  // HTTP status; 0 = transport error
  /// Digest of the response's answer (see AnswerDigest); 0 when not 2xx.
  uint64_t digest = 0;
  bool exact = true;       // approx.is_exact of the response
  bool refreshed = false;  // stats.refreshed: this read refreshed a stale handle
  double service_ms = 0.0;  // stats.latency_ms the service reported
  int64_t handle = -1;      // QueryResponse.handle
  size_t response_bytes = 0;
  std::string body;  // kept for guidance, query and error responses
  double latency_ms() const { return done_ms - due_ms; }
  bool ok() const { return status >= 200 && status < 300; }
};

/// Digest of the part of a response that must be bit-identical to a serial
/// replay: the Solution for summarize/explore/retrieve, the grid shape for
/// guidance, the answer-set shape for query, nothing for appends.
uint64_t AnswerDigest(OpKind kind, const qagview::json::Json& response);

/// Sends one request and parses what comes back into a Sample (times are
/// left to the caller).
Sample Exchange(int port, OpKind kind, const std::string& body);

/// Makes the (kind, body) of the i-th request of a phase.
using RequestMaker = std::function<std::pair<OpKind, std::string>(int index)>;

/// Open loop: request i is due at due_ms[i] after the phase start; worker
/// threads take the next due request, sleep until it is due and send it. A
/// request sent late (all threads busy) keeps its due time, so the wait
/// counts in its latency, and the lateness is recorded.
std::vector<Sample> RunOpenLoop(int port, int threads, const std::vector<double>& due_ms,
                                const RequestMaker& make);

/// Closed loop: `clients` threads send requests 0, 1, 2, ... back to back
/// until `seconds` have passed.
std::vector<Sample> RunClosedLoop(int port, int clients, double seconds,
                                  const RequestMaker& make);

/// Milliseconds on the steady clock since an arbitrary fixed origin.
double NowMs();

}  // namespace e2ebench

#endif  // E2EBENCH_CLIENT_H_
