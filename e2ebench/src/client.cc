#include "client.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "server/http.h"
#include "server/serde.h"

extern char** environ;

namespace e2ebench {

namespace json = qagview::json;
namespace server = qagview::server;
using qagview::Status;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Reads what the child wrote to stderr, waiting at most `timeout_ms`.
// Returns false on EOF or timeout.
bool ReadSome(int fd, std::string* out, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return false;
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n <= 0) return false;
  out->append(buf, static_cast<size_t>(n));
  return true;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(const std::string& binary,
                                                            const std::string& input_dir) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IOError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string ratings = "ratings=" + input_dir + "/ratings.csv";
  const std::string sales = "store_sales=" + input_dir + "/store_sales.csv";
  std::vector<std::string> args = {binary,    "--port",  "0",   "--dataset",
                                   ratings,   "--dataset", sales};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  const int rc = posix_spawn(&proc->pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  proc->stderr_fd_ = fds[0];
  if (rc != 0) {
    proc->pid_ = -1;
    return Status::IOError("cannot spawn " + binary + ": " + std::strerror(rc));
  }
  const double deadline = NowMs() + 120000.0;
  const char* const kListening = "listening on ";
  while (NowMs() < deadline) {
    const size_t at = proc->log_.find(kListening);
    if (at != std::string::npos && proc->log_.find('(', at) != std::string::npos) {
      const size_t colon = proc->log_.find(':', at + std::strlen(kListening));
      proc->port_ = std::atoi(proc->log_.c_str() + colon + 1);
      if (proc->port_ > 0) return proc;
    }
    if (!ReadSome(proc->stderr_fd_, &proc->log_, 1000)) {
      int status = 0;
      if (::waitpid(proc->pid_, &status, WNOHANG) == proc->pid_) {
        proc->pid_ = -1;
        return Status::IOError("server exited during start-up:\n" + proc->log_);
      }
    }
  }
  return Status::IOError("server did not start listening:\n" + proc->log_);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Result<ServerProcess::Final> ServerProcess::Stop() {
  ::kill(pid_, SIGTERM);
  while (ReadSome(stderr_fd_, &log_, 60000)) {
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("server did not exit cleanly:\n" + log_);
  }
  Final out;
  long long v[7] = {0, 0, 0, 0, 0, 0, 0};
  const size_t drained = log_.find("drained. ");
  if (drained == std::string::npos ||
      std::sscanf(log_.c_str() + drained,
                  "drained. accepted=%lld admitted=%lld rejected_503=%lld served_2xx=%lld "
                  "4xx=%lld 5xx=%lld io_errors=%lld",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6]) != 7) {
    return Status::Internal("no drain counters in server output:\n" + log_);
  }
  out.transport = {v[0], v[1], v[2], v[3], v[4], v[5], v[6]};
  const std::string kStats = "service stats: ";
  const size_t at = log_.find(kStats);
  if (at == std::string::npos) return Status::Internal("no service stats:\n" + log_);
  const size_t end = log_.find('\n', at);
  QAG_ASSIGN_OR_RETURN(json::Json doc,
                       json::Json::Parse(log_.substr(at + kStats.size(),
                                                     end - at - kStats.size())));
  QAG_ASSIGN_OR_RETURN(out.service, server::ServiceStatsFromJson(doc));
  return out;
}

uint64_t AnswerDigest(OpKind kind, const json::Json& doc) {
  switch (kind) {
    case OpKind::kSummarize:
    case OpKind::kExplore:
    case OpKind::kRetrieve: {
      const json::Json* solution = doc.Find("solution");
      return solution == nullptr ? 1 : Fnv1a(solution->Dump());
    }
    case OpKind::kGuidance:
    case OpKind::kQuery: {
      std::string shape;
      for (const char* key : {"store_l", "k_max", "d_values", "min_ks", "num_intervals",
                              "naive_entries", "num_answers", "num_attrs"}) {
        const json::Json* v = doc.Find(key);
        if (v != nullptr) shape += std::string(key) + "=" + v->Dump() + ";";
      }
      return Fnv1a(shape);
    }
    case OpKind::kAppend:
      return 0;
  }
  return 0;
}

Sample Exchange(int port, OpKind kind, const std::string& body) {
  Sample s;
  auto response =
      server::HttpFetch("127.0.0.1", port, "POST", std::string("/") + OpName(kind), body);
  if (!response.ok()) return s;
  s.status = response->status;
  s.response_bytes = response->body.size();
  if (!s.ok()) {
    s.body = std::move(response->body);  // the server's error document
    return s;
  }
  auto doc = json::Json::Parse(response->body);
  if (!doc.ok()) {
    s.status = 0;
    return s;
  }
  s.digest = AnswerDigest(kind, *doc);
  if (const json::Json* approx = doc->Find("approx")) {
    if (const json::Json* exact = approx->Find("is_exact")) s.exact = exact->AsBool();
  }
  if (const json::Json* stats = doc->Find("stats")) {
    if (const json::Json* v = stats->Find("refreshed")) s.refreshed = v->AsBool();
    if (const json::Json* v = stats->Find("latency_ms")) s.service_ms = v->AsDouble();
  }
  if (const json::Json* handle = doc->Find("handle")) s.handle = handle->AsInt();
  if (kind == OpKind::kGuidance || kind == OpKind::kQuery) s.body = std::move(response->body);
  return s;
}

std::vector<Sample> RunOpenLoop(int port, int threads, const std::vector<double>& due_ms,
                                const RequestMaker& make) {
  std::vector<Sample> samples(due_ms.size());
  std::atomic<size_t> next{0};
  const double start = NowMs();
  auto worker = [&] {
    for (size_t i = next++; i < due_ms.size(); i = next++) {
      auto [kind, body] = make(static_cast<int>(i));
      const double due = start + due_ms[i];
      double now = NowMs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(due - now));
      }
      const double sent = NowMs();
      Sample s = Exchange(port, kind, body);
      s.done_ms = NowMs() - start;
      s.index = static_cast<int>(i);
      s.due_ms = due_ms[i];
      s.sent_ms = sent - start;
      samples[i] = std::move(s);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return samples;
}

std::vector<Sample> RunClosedLoop(int port, int clients, double seconds,
                                  const RequestMaker& make) {
  std::mutex mu;
  std::vector<Sample> samples;
  std::atomic<int> next{0};
  const double start = NowMs();
  const double stop = start + seconds * 1e3;
  auto worker = [&] {
    while (NowMs() < stop) {
      const int i = next++;
      auto [kind, body] = make(i);
      const double sent = NowMs();
      Sample s = Exchange(port, kind, body);
      s.done_ms = NowMs() - start;
      s.index = i;
      s.due_ms = s.sent_ms = sent - start;
      std::lock_guard<std::mutex> lock(mu);
      samples.push_back(std::move(s));
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < clients; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return samples;
}

}  // namespace e2ebench
