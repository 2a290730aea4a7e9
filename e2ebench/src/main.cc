// e2ebench_driver: the load-generating process of the end-to-end benchmark.
//
//   e2ebench_driver gen --seed N --inputs DIR
//       writes the seed's CSV inputs into DIR once (later calls reuse them)
//   e2ebench_driver run --workload W --seed N --seconds S --trace 0|1
//       --inputs DIR --server PATH/qagview_server [--trace-file FILE]
//       runs one workload against a qagview_server child process and
//       prints one JSON object: metrics, counts and the oracle's verdict
//
// run.py wraps both; see README.md for the workloads and metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common/json.h"
#include "inputs.h"
#include "server/serde.h"
#include "service/query_service.h"
#include "trace.h"

namespace e2ebench {
namespace {

namespace json = qagview::json;
namespace service = qagview::service;

/// The latency limit a response must meet to count towards capacity_rps and
/// within_limit_rps.
constexpr double kLimitMs = 100.0;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Nominal open-loop rates (requests per second).
constexpr double kExploreRate = 400.0;
constexpr double kIngestReadRate = 16.0;
constexpr double kIngestAppendRate = 4.0;
/// Reference timings explore takes before and after its open-loop phase.
constexpr int kReferenceBurst = 25;
/// ingest runs its schedule in slices of this length. Between two slices the
/// server is idle and the reference kernel runs kSliceReferences times, so
/// each stale read is scaled by the machine's speed at its own moment. It
/// runs on one core there: after a second of light load the VM's idle cores
/// are slow to wake, and an all-core kernel measured that (25 ms between
/// slices, 7 ms inside exact_query's busy loop) rather than compute speed.
constexpr double kIngestSliceMs = 1000.0;
constexpr int kSliceReferences = 2;
/// Share of an explore run spent in the open-loop phase; the rest is the
/// closed-loop saturation phase.
constexpr double kExploreOpenShare = 0.6;
/// Connections of the closed-loop saturation phase: half the cores, so the
/// load generator leaves the server most of the machine.
constexpr int kSaturationClients = 2;
/// new_query / exact_query rounds after which the server's memory peak is
/// read.
constexpr int kNewQueryRssRounds = 6;
/// The fixed request counts the traced replay runs.
constexpr int kTraceExploreRequests = 600;
constexpr int kTraceNewQueryCycles = 8;
constexpr int kTraceIngestReads = 150;

struct Options {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs;
  std::string server;
  std::string trace_file;
};

int Nproc() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- Machine speed --------------------------------------------------------
//
// On a shared VM the speed of the cores drifts by tens of percent within
// minutes (and a VM may get less CPU than it has cores once it has used its
// share), so raw latencies of two runs of the same code can differ by more
// than any useful bound. The gated latencies are therefore divided by the
// median of reference timings taken in the same run while the server is
// idle.

/// A fixed piece of CPU and memory work that calls no repository code:
/// counting 2^16 seeded keys in an open-addressing hash table, then sorting
/// them, the kind of work a GROUP BY does. With `all_cores` it runs on every
/// core at once (the server's universe and grid builds use every core, so a
/// slow core slows them); otherwise once, on the calling thread. Its buffers
/// are allocated once, so only the machine's speed, not the allocator's
/// state, moves it. Returns the wall time in ms.
double ReferenceMs(bool all_cores) {
  constexpr size_t kKeys = size_t{1} << 16;
  constexpr size_t kSlots = size_t{1} << 16;  // 20000 distinct keys
  struct Buffers {
    std::vector<uint64_t> keys = std::vector<uint64_t>(kKeys);
    std::vector<uint64_t> slots = std::vector<uint64_t>(kSlots);
    std::vector<uint64_t> counts = std::vector<uint64_t>(kSlots);
    std::vector<uint64_t> sorted = std::vector<uint64_t>(kKeys);
  };
  static std::vector<Buffers> buffers = [] {
    std::vector<Buffers> b(static_cast<size_t>(Nproc()));
    uint64_t x = 88172645463325252ULL;  // xorshift64
    for (uint64_t& v : b[0].keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = 1 + x % 20000;  // 0 marks an empty slot
    }
    for (Buffers& each : b) each.keys = b[0].keys;
    return b;
  }();
  auto kernel = [](Buffers* b) {
    std::fill(b->slots.begin(), b->slots.end(), 0);
    std::fill(b->counts.begin(), b->counts.end(), 0);
    for (uint64_t k : b->keys) {
      size_t h = static_cast<size_t>((k * 0x9E3779B97F4A7C15ULL) >> 48);
      while (b->slots[h] != 0 && b->slots[h] != k) h = (h + 1) & (kSlots - 1);
      b->slots[h] = k;
      ++b->counts[h];
    }
    std::copy(b->keys.begin(), b->keys.end(), b->sorted.begin());
    std::sort(b->sorted.begin(), b->sorted.end());
  };
  const double start = NowMs();
  if (!all_cores) {
    kernel(&buffers[0]);
    return NowMs() - start;
  }
  std::vector<std::thread> threads;
  for (Buffers& b : buffers) threads.emplace_back(kernel, &b);
  for (std::thread& t : threads) t.join();
  return NowMs() - start;
}

/// Runs ReferenceMs(all_cores) `n` times, appending each timing to `refs`.
/// It only runs while the server is idle, so the reference never competes
/// with the requests it scales.
void ReferenceBurst(int n, bool all_cores, std::vector<double>* refs) {
  for (int i = 0; i < n; ++i) refs->push_back(ReferenceMs(all_cores));
}

/// The results of one run, as printed.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit, int64_t samples) {
    json::Json m = json::Json::Object();
    m.Set("value", json::Json::Number(value));
    m.Set("unit", json::Json::Str(unit));
    m.Set("samples", json::Json::Int(samples));
    metrics_.Set(name, std::move(m));
  }
  /// p50 and the requested tail percentiles of `latencies`; a tail with
  /// fewer than ten samples beyond it is listed in unsupported_percentiles.
  void Latency(const std::string& name, const std::vector<double>& latencies,
               std::initializer_list<int> tails) {
    const int64_t n = static_cast<int64_t>(latencies.size());
    Metric(name + ".p50", Percentile(latencies, 0.5), "ms", n);
    for (int tail : tails) {
      const std::string key = name + ".p" + std::to_string(tail);
      Metric(key, Percentile(latencies, tail / 100.0), "ms", n);
      if (static_cast<double>(n) * (1.0 - tail / 100.0) < 10.0) unsupported_.insert(key);
    }
  }
  /// The gated pair `primary_rel.p50` and `primary_rel.tail`: the
  /// workload's primary latencies divided by the median of the run's
  /// reference timings. The tail is the percentile the workload has enough
  /// samples for (see README.md).
  void Gate(const std::vector<double>& latencies, const std::vector<double>& refs, int tail) {
    const double ref = Median(refs);
    std::vector<double> rel;
    for (double ms : latencies) rel.push_back(ms / ref);
    GateRelative(rel, refs, tail);
  }
  /// The same, for latencies already divided by the reference time of
  /// their own moment (`rel`); `refs` are all the run's reference timings.
  void GateRelative(const std::vector<double>& rel, const std::vector<double>& refs, int tail) {
    const int64_t n = static_cast<int64_t>(rel.size());
    Metric("reference_ms", Median(refs), "ms", static_cast<int64_t>(refs.size()));
    Metric("primary_rel.p50", Percentile(rel, 0.5), "x_ref", n);
    Metric("primary_rel.tail", Percentile(rel, tail / 100.0), "x_ref", n);
    if (static_cast<double>(n) * (1.0 - tail / 100.0) < 10.0) {
      unsupported_.insert("primary_rel.tail");
    }
  }
  void Fail(const std::string& problem) {
    ++failed_;
    if (problems_.size() < 20) problems_.push_back(problem);
  }
  void Attempt(int64_t n) { attempted_ += n; }
  /// Counts every sample as attempted and every non-2xx one as failed.
  void Count(const std::vector<Sample>& samples, const char* phase) {
    Attempt(static_cast<int64_t>(samples.size()));
    for (const Sample& s : samples) {
      if (!s.ok()) {
        Fail(std::string(phase) + " request " + std::to_string(s.index) + ": HTTP status " +
             std::to_string(s.status) + " " + s.body.substr(0, 200));
      }
    }
  }
  void Invalidate(const std::string& why) { invalid_.push_back(why); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  json::Json ToJson() const {
    json::Json out = json::Json::Object();
    out.Set("attempted", json::Json::Int(attempted_));
    out.Set("failed", json::Json::Int(failed_));
    json::Json problems = json::Json::Array();
    for (const std::string& p : problems_) problems.Append(json::Json::Str(p));
    out.Set("problems", std::move(problems));
    json::Json invalid = json::Json::Array();
    for (const std::string& p : invalid_) invalid.Append(json::Json::Str(p));
    out.Set("invalid", std::move(invalid));
    json::Json unsupported = json::Json::Array();
    for (const std::string& p : unsupported_) unsupported.Append(json::Json::Str(p));
    out.Set("unsupported_percentiles", std::move(unsupported));
    out.Set("metrics", metrics_);
    json::Json stamp = json::Json::Object();
    stamp.Set("nproc", json::Json::Int(Nproc()));
    stamp.Set("compiler", json::Json::Str(E2EBENCH_COMPILER));
    stamp.Set("build_type", json::Json::Str(E2EBENCH_BUILD_TYPE));
    out.Set("stamp", std::move(stamp));
    return out;
  }

 private:
  json::Json metrics_ = json::Json::Object();
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> problems_;
  std::vector<std::string> invalid_;
  std::set<std::string> unsupported_;
};

std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.ok()) out.push_back(s.latency_ms());
  }
  return out;
}

// --- Workload state shared by the run, the oracle and the traced replay ---

struct Workload {
  Options opt;
  Plan plan;
  std::vector<std::string> batches;
  /// Retrieve parameters clamped to the grid shapes the warm-up reported.
  std::vector<Request> pool;
  /// Grid shape per (query, L): d -> smallest stored k.
  std::map<std::pair<int, int>, std::map<int, int>> grids;
  /// Approx-first responses that serve one phase but report the other.
  int64_t provenance_mismatches = 0;
};

/// Clamps every Retrieve of the pool to its grid: d to a stored D row, k to
/// at least that row's smallest stored size. The shapes come from warm-up
/// responses, which are deterministic in the seed.
void ClampRetrieves(Workload* w) {
  w->pool = w->plan.pool;
  for (Request& r : w->pool) {
    if (r.kind != OpKind::kRetrieve) continue;
    auto it = w->grids.find({r.query, r.params.L});
    if (it == w->grids.end() || it->second.empty()) continue;
    auto row = it->second.lower_bound(r.params.D);
    if (row == it->second.end()) row = std::prev(it->second.end());
    r.params.D = row->first;
    r.params.k = std::max(r.params.k, row->second);
  }
}

void RecordGrid(Workload* w, const Request& r, const json::Json& doc) {
  auto shape = qagview::server::GuidanceResponseFromJson(doc);
  if (!shape.ok()) return;
  std::map<int, int>& grid = w->grids[{r.query, r.params.L}];
  for (size_t i = 0; i < shape->d_values.size() && i < shape->min_ks.size(); ++i) {
    grid[shape->d_values[i]] = shape->min_ks[i];
  }
}

struct SetupResult {
  std::unique_ptr<ServerProcess> server;
  std::vector<int64_t> handles;
  std::vector<Sample> warmup;
  double seconds = 0.0;
};

// Spawns the server and makes it ready for the first timed request: CSV
// load and sample build, the set-up queries, and (explore) the warm-up.
Result<SetupResult> SetUp(Workload* w, Report* report) {
  SetupResult out;
  const double start = NowMs();
  QAG_ASSIGN_OR_RETURN(out.server, ServerProcess::Start(w->opt.server, w->opt.inputs));
  out.handles.assign(w->plan.queries.size(), -1);
  for (int q : w->plan.opened) {
    Request r;
    r.kind = OpKind::kQuery;
    r.query = q;
    Sample s = Exchange(out.server->port(), OpKind::kQuery,
                        RequestBody(r, w->plan.queries, out.handles, w->batches));
    report->Count({s}, "set-up query");
    out.handles[static_cast<size_t>(q)] = s.handle;
  }
  if (w->opt.workload == "explore") {
    // Guidance serves the narrowest cached grid with L' >= L, so each
    // handle's levels are warmed in ascending order: every level then gets
    // a grid of its own, the same grids a serial replay builds. Handles
    // warm in parallel.
    const std::vector<Request> warm = WarmupRequests(w->plan.pool);
    out.warmup.resize(warm.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (size_t q = next++; q < w->plan.queries.size(); q = next++) {
        for (size_t i = 0; i < warm.size(); ++i) {
          if (warm[i].query != static_cast<int>(q)) continue;
          Sample s = Exchange(out.server->port(), OpKind::kGuidance,
                              RequestBody(warm[i], w->plan.queries, out.handles, w->batches));
          s.index = static_cast<int>(i);
          out.warmup[i] = std::move(s);
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < Nproc(); ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
    report->Count(out.warmup, "warm-up");
    for (const Sample& s : out.warmup) {
      if (!s.ok()) continue;
      auto doc = json::Json::Parse(s.body);
      if (doc.ok()) RecordGrid(w, warm[static_cast<size_t>(s.index)], *doc);
    }
  }
  out.seconds = (NowMs() - start) / 1e3;
  return out;
}

// --- The oracle: a serial replay on a fresh in-process QueryService -------

class Oracle {
 public:
  Oracle(const Workload& w, Report* report) : w_(w), report_(report) {}

  qagview::Status Load() { return RegisterDatasets(&svc_, w_.opt.inputs); }

  /// Opens `spec` on the oracle service; returns its handle.
  Result<int64_t> Open(QuerySpec spec) {
    std::vector<QuerySpec> one = {std::move(spec)};
    Request r;
    r.kind = OpKind::kQuery;
    r.query = 0;
    QAG_ASSIGN_OR_RETURN(json::Json doc,
                         ServiceCall(&svc_, OpKind::kQuery, RequestBody(r, one, {-1}, {})));
    return doc.Find("handle")->AsInt();
  }

  /// The digest a fresh serial replay gives `request` on `handles`.
  Result<uint64_t> Expect(const Request& request, const std::vector<int64_t>& handles) {
    QAG_ASSIGN_OR_RETURN(json::Json doc,
                         ServiceCall(&svc_, request.kind,
                                     RequestBody(request, w_.plan.queries, handles, w_.batches)));
    return AnswerDigest(request.kind, doc);
  }

  /// Compares a response digest with the oracle's; mismatches fail the run.
  void Check(const Sample& s, const Result<uint64_t>& expected, const std::string& what) {
    if (!s.ok()) return;  // already counted
    if (!expected.ok()) {
      report_->Fail("oracle could not replay " + what + ": " + expected.status().ToString());
    } else if (*expected != s.digest) {
      report_->Fail("answer mismatch: " + what);
    }
  }

  service::QueryService* service() { return &svc_; }

 private:
  const Workload& w_;
  Report* report_;
  service::QueryService svc_;
};

// Checks explore responses: every distinct request replayed once, in the
// order it first appeared.
qagview::Status CheckExplore(Workload* w, const std::vector<std::pair<const std::vector<Request>*,
                                                                      const std::vector<Sample>*>>& phases,
                             Report* report) {
  Oracle oracle(*w, report);
  QAG_RETURN_IF_ERROR(oracle.Load());
  std::vector<int64_t> handles(w->plan.queries.size(), -1);
  for (int q : w->plan.opened) {
    QAG_ASSIGN_OR_RETURN(handles[static_cast<size_t>(q)], oracle.Open(w->plan.queries[q]));
  }
  std::map<std::string, Result<uint64_t>> expected;
  for (const auto& [requests, samples] : phases) {
    for (const Sample& s : *samples) {
      const Request& r = (*requests)[static_cast<size_t>(s.index) % requests->size()];
      const std::string key = RequestKey(r);
      auto it = expected.find(key);
      if (it == expected.end()) it = expected.emplace(key, oracle.Expect(r, handles)).first;
      oracle.Check(s, it->second, key);
    }
  }
  return qagview::Status::OK();
}

void CheckBalance(const ServerProcess::Final& final, Report* report) {
  const auto& t = final.transport;
  if (t.admitted != t.served_2xx + t.client_errors_4xx + t.server_errors_5xx + t.io_errors) {
    report->Fail("ServerStats do not balance: admitted=" + std::to_string(t.admitted));
  }
}

/// What the load run hands the traced replay.
struct LoadRun {
  ServerProcess::Final final;
  std::vector<Sample> timed;  // every timed sample, for transport and bytes
  double lateness_p99 = 0.0;
  double cpu_s = 0.0;
};

double LatenessP99(const std::vector<Sample>& samples) {
  std::vector<double> late;
  for (const Sample& s : samples) late.push_back(s.sent_ms - s.due_ms);
  return Percentile(late, 0.99);
}

// Stops the kept server and records what only it can tell.
Result<LoadRun> Finish(SetupResult* setup, std::vector<Sample> timed, double lateness_p99,
                       Report* report, double rss = 0.0) {
  LoadRun out;
  if (rss == 0.0) rss = setup->server->PeakRssMb();
  out.cpu_s = setup->server->CpuSeconds();
  QAG_ASSIGN_OR_RETURN(out.final, setup->server->Stop());
  CheckBalance(out.final, report);
  report->Metric("rss_peak_mb", rss, "MB", 1);
  report->Metric("loadgen.lateness_ms.p99", lateness_p99, "ms",
                 static_cast<int64_t>(timed.size()));
  if (lateness_p99 > kLimitMs) {
    report->Invalidate("the load generator fell behind: lateness p99 " +
                       std::to_string(lateness_p99) + " ms");
  }
  out.lateness_p99 = lateness_p99;
  out.timed = std::move(timed);
  return out;
}

// Runs the set-ups and reports their median as setup_s; all but the last
// server are stopped again.
Result<SetupResult> SetUps(Workload* w, Report* report) {
  std::vector<double> seconds;
  const int n = w->opt.trace ? 1 : kSetups;
  for (int i = 0;; ++i) {
    QAG_ASSIGN_OR_RETURN(SetupResult s, SetUp(w, report));
    seconds.push_back(s.seconds);
    if (i + 1 == n) {
      report->Metric("setup_s", Median(seconds), "s", n);
      return s;
    }
    QAG_ASSIGN_OR_RETURN(ServerProcess::Final final, s.server->Stop());
    CheckBalance(final, report);
  }
}

Result<LoadRun> RunExplore(Workload* w, Report* report) {
  QAG_ASSIGN_OR_RETURN(SetupResult setup, SetUps(w, report));
  ClampRetrieves(w);
  const int port = setup.server->port();
  auto make = [&](int offset) {
    return [&, offset](int i) {
      const Request& r = w->pool[static_cast<size_t>(offset + i) % w->pool.size()];
      return std::make_pair(r.kind, RequestBody(r, w->plan.queries, setup.handles, w->batches));
    };
  };
  const double open_s = w->opt.seconds * kExploreOpenShare;
  std::vector<double> due;
  for (int i = 0; i < static_cast<int>(open_s * kExploreRate); ++i) due.push_back(i * 1e3 / kExploreRate);
  std::vector<double> refs;
  ReferenceBurst(kReferenceBurst, true, &refs);
  std::vector<Sample> open = RunOpenLoop(port, Nproc(), due, make(0));
  ReferenceBurst(kReferenceBurst, true, &refs);
  const int offset = static_cast<int>(due.size());
  const double closed_s = w->opt.seconds - open_s;
  std::vector<Sample> closed = RunClosedLoop(port, kSaturationClients, closed_s, make(offset));
  report->Count(open, "open loop");
  report->Count(closed, "saturation");

  const std::vector<double> interact = Latencies(open);
  report->Latency("interact_ms", interact, {90, 99});
  const std::vector<double> saturated = Latencies(closed);
  report->Latency("saturation_ms", saturated, {90});
  int64_t within = 0;
  for (double ms : saturated) within += ms <= kLimitMs;
  report->Metric("capacity_rps", static_cast<double>(within) / closed_s, "req/s",
                 static_cast<int64_t>(closed.size()));
  report->Gate(interact, refs, 90);

  const double lateness = LatenessP99(open);
  std::vector<Sample> timed = open;
  timed.insert(timed.end(), closed.begin(), closed.end());
  QAG_ASSIGN_OR_RETURN(LoadRun run, Finish(&setup, std::move(timed), lateness, report));

  // Closed-loop sample i carries request offset + i of the pool.
  for (Sample& s : closed) s.index += offset;
  const std::vector<Request> warm = WarmupRequests(w->plan.pool);
  QAG_RETURN_IF_ERROR(CheckExplore(
      w, {{&warm, &setup.warmup}, {&w->pool, &open}, {&w->pool, &closed}}, report));
  return run;
}

Result<LoadRun> RunNewQuery(Workload* w, Report* report) {
  QAG_ASSIGN_OR_RETURN(SetupResult setup, SetUps(w, report));
  const int port = setup.server->port();
  std::vector<int64_t>& handles = setup.handles;
  // One analyst: query, first view, grid, next query.
  std::vector<Sample> samples;  // three per cycle, in plan order
  // Every statement opens a session the server keeps, so the memory peak
  // is taken after a fixed number of rounds; a run too short for them is
  // invalid.
  double rss = 0.0;
  const double start = NowMs();
  // The server is idle between cycles (no background work in exact mode),
  // so the reference timings run there.
  std::vector<double> refs;
  size_t next = 0;
  while (NowMs() - start < w->opt.seconds * 1e3 && next + 3 <= w->plan.pool.size()) {
    for (int step = 0; step < 3; ++step, ++next) {
      const Request& r = w->plan.pool[next];
      const double sent = NowMs() - start;
      Sample s = Exchange(port, r.kind, RequestBody(r, w->plan.queries, handles, w->batches));
      s.index = static_cast<int>(next);
      s.due_ms = s.sent_ms = sent;
      s.done_ms = NowMs() - start;
      if (r.kind == OpKind::kQuery) handles[static_cast<size_t>(r.query)] = s.handle;
      samples.push_back(std::move(s));
    }
    refs.push_back(ReferenceMs(true));
    if (next == 3 * kNewQueryRound * kNewQueryRssRounds) rss = setup.server->PeakRssMb();
  }
  const double elapsed_s = (NowMs() - start) / 1e3;
  report->Count(samples, "new query");
  if (rss == 0.0) {
    report->Invalidate("fewer than " + std::to_string(kNewQueryRssRounds) +
                       " rounds finished, so rss_peak_mb was not read");
  }
  // Latencies come from complete rounds only, so every run weighs the
  // attribute sets alike.
  const size_t round = 3 * kNewQueryRound;
  std::vector<double> first_view, approx_view, guidance;
  for (size_t c = 0; c + 2 < samples.size() / round * round; c += 3) {
    const Sample& query = samples[c];
    const Sample& view = samples[c + 1];
    const Sample& grid = samples[c + 2];
    const QuerySpec& spec = w->plan.queries[static_cast<size_t>(w->plan.pool[c].query)];
    if (query.ok() && view.ok()) {
      const double ms = view.done_ms - query.sent_ms;
      (spec.mode == service::QueryMode::kExactOnly ? first_view : approx_view).push_back(ms);
    }
    if (grid.ok()) guidance.push_back(grid.latency_ms());
  }
  report->Latency("first_view_ms", first_view, {90});
  if (w->opt.workload == "new_query") report->Latency("approx_view_ms", approx_view, {});
  report->Latency("guidance_ms", guidance, {90});
  report->Gate(first_view, refs, 90);
  report->Metric("views_per_s", static_cast<double>(first_view.size() + approx_view.size()) /
                                    elapsed_s,
                 "views/s", samples.size() / 3);
  QAG_ASSIGN_OR_RETURN(LoadRun run, Finish(&setup, samples, 0.0, report, rss));

  // Oracle: exact statements replayed as they are; approx-first ones
  // against both phases (the response says which it served), plus the
  // refinement contract: after DrainBackgroundWork the answer is the cold
  // exact one.
  Oracle oracle(*w, report);
  QAG_RETURN_IF_ERROR(oracle.Load());
  for (size_t c = 0; c + 2 < samples.size(); c += 3) {
    const Request& query = w->plan.pool[c];
    const QuerySpec& spec = w->plan.queries[static_cast<size_t>(query.query)];
    std::vector<int64_t> exact(w->plan.queries.size(), -1), approx = exact;
    QuerySpec exact_spec = spec;
    exact_spec.mode = service::QueryMode::kExactOnly;
    QAG_ASSIGN_OR_RETURN(exact[query.query], oracle.Open(exact_spec));
    const bool approx_first = spec.mode == service::QueryMode::kApproxFirst;
    if (approx_first) {
      QuerySpec only = spec;
      only.mode = service::QueryMode::kApproxOnly;
      QAG_ASSIGN_OR_RETURN(approx[query.query], oracle.Open(only));
    }
    for (size_t step = 1; step < 3; ++step) {
      const Request& r = w->plan.pool[c + step];
      const Sample& s = samples[c + step];
      const Result<uint64_t> cold = oracle.Expect(r, exact);
      const std::string what = spec.sql + " " + OpName(r.kind);
      if (!approx_first) {
        oracle.Check(s, cold, what);
      } else {
        const Result<uint64_t> estimate = oracle.Expect(r, approx);
        const Result<uint64_t>& claimed = s.exact ? cold : estimate;
        const Result<uint64_t>& other = s.exact ? estimate : cold;
        if (s.ok() && claimed.ok() && other.ok() && *claimed != s.digest && *other == s.digest) {
          // The answer is the other phase's: the response misstates which
          // phase served it. A failed operation like any other mismatch,
          // also counted on its own so the cause shows.
          ++w->provenance_mismatches;
          report->Fail(std::string("answer of the ") + (s.exact ? "approximate" : "exact") +
                       " phase labelled " + (s.exact ? "exact" : "approximate") + ": " + what);
        } else {
          oracle.Check(s, claimed, what);
        }
      }
      if (approx_first && step == 1) {
        std::vector<int64_t> first(w->plan.queries.size(), -1);
        QAG_ASSIGN_OR_RETURN(first[query.query], oracle.Open(spec));
        oracle.service()->DrainBackgroundWork();
        const Result<uint64_t> refined = oracle.Expect(r, first);
        if (!refined.ok() || !cold.ok() || *refined != *cold) {
          report->Fail("refined answer differs from the cold exact answer: " + spec.sql);
        }
      }
    }
  }
  return run;
}

Result<LoadRun> RunIngest(Workload* w, Report* report) {
  QAG_ASSIGN_OR_RETURN(SetupResult setup, SetUps(w, report));
  const int port = setup.server->port();
  const double ms = w->opt.seconds * 1e3;
  std::vector<double> read_due, append_due;
  for (double t = 0; t < ms; t += 1e3 / kIngestReadRate) read_due.push_back(t);
  for (double t = 500.0 / kIngestAppendRate; t < ms; t += 1e3 / kIngestAppendRate) {
    append_due.push_back(t);
  }
  if (append_due.size() > w->batches.size()) {
    return qagview::Status::InvalidArgument("run too long for the generated append batches");
  }
  // The open-loop schedule runs slice by slice; the reference timings at
  // slice k's two ends (refs[k * kSliceReferences ...], kSliceReferences
  // each) scale the stale reads of slice k.
  std::vector<Sample> reads, appends;
  std::vector<double> refs;
  std::vector<size_t> read_slice;  // the slice of each read
  ReferenceBurst(kSliceReferences, false, &refs);
  size_t next_read = 0, next_append = 0;
  for (size_t slice = 0; slice * kIngestSliceMs < ms; ++slice) {
    const double slice_start = static_cast<double>(slice) * kIngestSliceMs;
    auto take = [&](const std::vector<double>& all, size_t* next) {
      std::vector<double> due;
      for (; *next < all.size() && all[*next] < slice_start + kIngestSliceMs; ++*next) {
        due.push_back(all[*next] - slice_start);
      }
      return due;
    };
    const size_t first_read = next_read, first_append = next_append;
    const std::vector<double> slice_reads = take(read_due, &next_read);
    const std::vector<double> slice_appends = take(append_due, &next_append);
    std::vector<Sample> new_appends;
    std::thread appender([&] {
      new_appends = RunOpenLoop(port, 1, slice_appends, [&](int i) {
        return std::make_pair(OpKind::kAppend,
                              w->batches[first_append + static_cast<size_t>(i)]);
      });
    });
    std::vector<Sample> new_reads =
        RunOpenLoop(port, std::max(1, Nproc() - 1), slice_reads, [&](int i) {
          const Request& r =
              w->plan.pool[(first_read + static_cast<size_t>(i)) % w->plan.pool.size()];
          return std::make_pair(r.kind,
                                RequestBody(r, w->plan.queries, setup.handles, w->batches));
        });
    appender.join();
    ReferenceBurst(kSliceReferences, false, &refs);
    for (Sample& s : new_appends) {
      s.index += static_cast<int>(first_append);
      appends.push_back(std::move(s));
    }
    for (Sample& s : new_reads) {
      s.index += static_cast<int>(first_read);
      reads.push_back(std::move(s));
      read_slice.push_back(slice);
    }
  }
  report->Count(reads, "read");
  report->Count(appends, "append");

  std::vector<double> stale, fresh, stale_rel;
  for (size_t i = 0; i < reads.size(); ++i) {
    const Sample& s = reads[i];
    if (!s.ok()) continue;
    (s.refreshed ? stale : fresh).push_back(s.latency_ms());
    if (s.refreshed) {
      const auto ends =
          refs.begin() + static_cast<std::ptrdiff_t>(read_slice[i] * kSliceReferences);
      stale_rel.push_back(s.latency_ms() / Median({ends, ends + 2 * kSliceReferences}));
    }
  }
  const std::vector<double> append_ms = Latencies(appends);
  report->Latency("stale_read_ms", stale, {75, 90});
  report->Latency("interact_ms", fresh, {90, 99});
  report->Latency("append_ms", append_ms, {75, 90});
  int64_t within = 0;
  for (const auto* phase : {&reads, &appends}) {
    for (const Sample& s : *phase) within += s.ok() && s.latency_ms() <= kLimitMs;
  }
  report->GateRelative(stale_rel, refs, 90);
  report->Metric("within_limit_rps", static_cast<double>(within) / w->opt.seconds, "req/s",
                 reads.size() + appends.size());

  // Final state: every handle read once more after the last append. Only
  // answers that do not depend on which grids happen to be cached (Guidance
  // and Retrieve serve the narrowest cached grid with L' >= L) are checked.
  std::vector<Request> finals;
  for (int q : w->plan.opened) {
    Request r;
    r.query = q;
    r.kind = OpKind::kExplore;
    r.params = qagview::core::Params{4, 8, 2};
    finals.push_back(r);
    r.kind = OpKind::kSummarize;
    r.params = qagview::core::Params{6, 16, 1};
    finals.push_back(r);
  }
  std::vector<Sample> final_reads;
  for (const Request& r : finals) {
    final_reads.push_back(
        Exchange(port, r.kind, RequestBody(r, w->plan.queries, setup.handles, w->batches)));
  }
  report->Count(final_reads, "final read");

  std::vector<Sample> timed = reads;
  timed.insert(timed.end(), appends.begin(), appends.end());
  const double lateness = LatenessP99(timed);
  QAG_ASSIGN_OR_RETURN(LoadRun run, Finish(&setup, std::move(timed), lateness, report));

  // Oracle: a fresh service over the final table state (the base CSV plus
  // every acknowledged batch, in order).
  Oracle oracle(*w, report);
  QAG_RETURN_IF_ERROR(oracle.Load());
  for (const Sample& s : appends) {
    if (!s.ok()) continue;
    QAG_RETURN_IF_ERROR(
        ServiceCall(oracle.service(), OpKind::kAppend, w->batches[s.index]).status());
  }
  std::vector<int64_t> handles(w->plan.queries.size(), -1);
  for (int q : w->plan.opened) {
    QAG_ASSIGN_OR_RETURN(handles[static_cast<size_t>(q)], oracle.Open(w->plan.queries[q]));
  }
  for (size_t i = 0; i < finals.size(); ++i) {
    oracle.Check(final_reads[i], oracle.Expect(finals[i], handles),
                 "final " + RequestKey(finals[i]));
  }
  return run;
}

// --- The traced run -------------------------------------------------------

// The requests the traced replay runs, with a flag for set-up requests.
std::vector<std::pair<Request, bool>> TraceRequests(const Workload& w) {
  std::vector<std::pair<Request, bool>> out;
  for (int q : w.plan.opened) {
    Request r;
    r.kind = OpKind::kQuery;
    r.query = q;
    out.emplace_back(r, true);
  }
  if (w.opt.workload == "explore") {
    const size_t n = std::min<size_t>(kTraceExploreRequests, w.pool.size());
    const std::vector<Request> head(w.pool.begin(), w.pool.begin() + static_cast<std::ptrdiff_t>(n));
    for (const Request& r : WarmupRequests(head)) out.emplace_back(r, true);
    for (const Request& r : head) out.emplace_back(r, false);
  } else if (w.opt.workload == "new_query" || w.opt.workload == "exact_query") {
    for (size_t i = 0; i < 3 * kTraceNewQueryCycles && i < w.plan.pool.size(); ++i) {
      out.emplace_back(w.plan.pool[i], false);
    }
  } else {
    // Reads and appends merged in due-time order, as the open loops send
    // them.
    int batch = 0;
    for (int i = 0; i < kTraceIngestReads; ++i) {
      const double due = i * 1e3 / kIngestReadRate;
      while ((batch + 0.5) * 1e3 / kIngestAppendRate <= due) {
        Request a;
        a.kind = OpKind::kAppend;
        a.batch = batch++;
        out.emplace_back(a, false);
      }
      out.emplace_back(w.plan.pool[static_cast<size_t>(i) % w.plan.pool.size()], false);
    }
  }
  return out;
}

qagview::Status RunTraced(Workload* w, const LoadRun& load, Report* report) {
  if (w->pool.empty()) w->pool = w->plan.pool;
  const std::vector<std::pair<Request, bool>> requests = TraceRequests(*w);
  const std::vector<QuerySpec>& queries = w->plan.queries;

  // The layer replay once without spans, for the tracing overhead.
  double untraced_ms = 0.0;
  {
    Tracer off(false);
    LayerReplay layers(&off);
    QAG_RETURN_IF_ERROR(layers.Load(w->opt.inputs));
    const std::vector<int64_t> no_handles(queries.size(), -1);
    for (const auto& [r, setup] : requests) {
      const std::string body = RequestBody(r, queries, no_handles, w->batches);
      const double start = NowMs();
      QAG_RETURN_IF_ERROR(layers.Run(r, queries, body).status());
      if (!setup) untraced_ms += NowMs() - start;
      QAG_RETURN_IF_ERROR(layers.Refine(queries));
    }
  }

  Tracer tracer(true);
  LayerReplay layers(&tracer);
  {
    Tracer::Scope root(&tracer, "setup");
    QAG_RETURN_IF_ERROR(layers.Load(w->opt.inputs));
  }
  service::QueryService twin;
  QAG_RETURN_IF_ERROR(RegisterDatasets(&twin, w->opt.inputs));
  std::vector<int64_t> handles(queries.size(), -1);
  double traced_ms = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& [r, setup] = requests[i];
    tracer.SetRequest(static_cast<int64_t>(i));
    const std::string body = RequestBody(r, queries, handles, w->batches);
    Result<json::Json> response = qagview::Status::Internal("not run");
    Result<std::string> replayed = qagview::Status::Internal("not run");
    {
      Tracer::Scope root(&tracer, setup ? "setup" : "request");
      response = ServiceCall(&twin, r.kind, body, &tracer);
      const double start = NowMs();
      {
        Tracer::Scope span(&tracer, "replay");
        replayed = layers.Run(r, queries, body);
      }
      if (!setup) traced_ms += NowMs() - start;
    }
    report->Attempt(1);
    if (!response.ok() || !replayed.ok()) {
      report->Fail("traced replay failed: " + RequestKey(r));
      continue;
    }
    if (r.kind == OpKind::kQuery) handles[r.query] = response->Find("handle")->AsInt();
    if (!replayed->empty() && response->Find("solution")->Dump() != *replayed) {
      report->Fail("layer replay differs from the service: " + RequestKey(r));
    }
    twin.DrainBackgroundWork();
    QAG_RETURN_IF_ERROR(layers.Refine(queries));
  }
  if (!w->opt.trace_file.empty()) QAG_RETURN_IF_ERROR(tracer.Write(w->opt.trace_file));

  // Self times: set-up spans for storage and registration, request spans
  // for everything else. `_ms` metrics are mean self time per call.
  const auto setup_times = tracer.SelfTimes("setup");
  const auto times = tracer.SelfTimes("request");
  auto mean = [](const std::map<std::string, Tracer::SelfTime>& m, const std::string& name,
                 double scale) -> std::pair<double, int64_t> {
    auto it = m.find(name);
    if (it == m.end() || it->second.count == 0) return {0.0, 0};
    return {scale * it->second.total_ms / static_cast<double>(it->second.count), it->second.count};
  };
  auto span_metric = [&](const std::string& metric, const std::string& span, bool from_setup,
                         double scale = 1.0, const std::string& unit = "ms") {
    auto [value, n] = mean(from_setup ? setup_times : times, span, scale);
    report->Metric(metric, value, unit, n);
  };
  span_metric("storage.csv_read_ms", "storage.csv_read", true);
  span_metric("catalog.register_ms", "catalog.register", true);
  span_metric("catalog.register_nosample_ms", "catalog.register_nosample", true);
  {
    // The sample build is part of catalog.register, not a span of its own:
    // its cost is the registration minus the sample-less twin's.
    auto [with, n] = mean(setup_times, "catalog.register", 1.0);
    auto [without, m] = mean(setup_times, "catalog.register_nosample", 1.0);
    report->Metric("storage.sample_build_ms", with - without, "ms", std::min(n, m));
  }
  span_metric("catalog.append_ms", "catalog.append", false);
  span_metric("catalog.append_nosample_ms", "catalog.append_nosample", false);
  const LayerCounts& c = layers.counts();
  report->Metric("catalog.rows", static_cast<double>(c.catalog_rows > 0 ? c.catalog_rows : kDatasetRows),
                 "rows", 1);
  span_metric("sql.execute_ms", "sql.execute", false);
  span_metric("sql.execute_approx_ms", "sql.execute_approx", false);
  report->Metric("sql.rows_per_answer",
                 c.sql_answer_rows > 0 ? static_cast<double>(c.sql_input_rows) /
                                             static_cast<double>(c.sql_answer_rows)
                                       : 0.0,
                 "ratio", c.sql_executions);
  for (const char* name : {"answer_set", "universe_build", "precompute", "hybrid", "render",
                           "retrieve", "session_refresh"}) {
    span_metric(std::string("core.") + name + "_ms", std::string("core.") + name, false);
  }
  auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  report->Metric("core.universe_clusters", ratio(c.universe_clusters, c.universes_built),
                 "clusters", c.universes_built);
  report->Metric("core.store_intervals", ratio(c.store_intervals, c.stores_built), "intervals",
                 c.stores_built);
  report->Metric("core.refresh_reuse_ratio", ratio(c.refresh_full_reuses, c.refreshes), "ratio",
                 c.refreshes);
  for (const char* op : {"query", "summarize", "explore", "guidance", "retrieve", "append"}) {
    span_metric(std::string("service.") + op + "_ms", std::string("service.") + op, false);
  }
  span_metric("server.decode_us", "server.decode", false, 1e3, "us");
  span_metric("server.encode_us", "server.encode", false, 1e3, "us");

  // Counters of the untraced load run, as the server reported them.
  const service::ServiceStats& s = load.final.service;
  report->Metric("service.cache_hit_ratio", ratio(s.cache_hits, s.requests()), "ratio",
                 s.requests());
  const std::pair<const char*, int64_t> counters[] = {
      {"service.coalesced_waits", s.coalesced_waits},
      {"service.builds", s.builds},
      {"service.refreshes", s.refreshes},
      {"service.refresh_full_reuses", s.refresh_full_reuses},
      {"service.graveyard_size", s.graveyard_size},
      {"service.live_generations", s.live_generations},
      {"service.generations_evicted", s.generations_evicted},
      {"service.approx_queries", s.approx_queries},
      {"service.refinements", s.refinements},
      {"service.refinements_superseded", s.refinements_superseded},
      {"server.admitted", load.final.transport.admitted},
      {"server.rejected_503", load.final.transport.rejected_503},
      {"server.io_errors", load.final.transport.io_errors}};
  for (const auto& [name, value] : counters) {
    report->Metric(name, static_cast<double>(value), "count", 1);
  }
  // Scheduler lanes of the traced service replay.
  const auto lanes = twin.scheduler_counters();
  const char* const lane_names[] = {"foreground", "refinement", "prefetch"};
  for (int l = 0; l < qagview::BackgroundScheduler::kNumLanes; ++l) {
    const auto& lane = lanes.lanes[l];
    const std::string prefix = std::string("scheduler.") + lane_names[l];
    report->Metric(prefix + ".submitted", static_cast<double>(lane.submitted), "count", 1);
    report->Metric(prefix + ".ran", static_cast<double>(lane.ran), "count", 1);
    report->Metric(prefix + ".dropped", static_cast<double>(lane.dropped_superseded), "count", 1);
  }
  // Transport: HTTP round trip minus the service time the response reports.
  double transport = 0.0, bytes = 0.0;
  int64_t n = 0;
  for (const Sample& sample : load.timed) {
    if (!sample.ok()) continue;
    transport += (sample.done_ms - sample.sent_ms) - sample.service_ms;
    bytes += static_cast<double>(sample.response_bytes);
    ++n;
  }
  report->Metric("server.transport_ms", n > 0 ? transport / n : 0.0, "ms", n);
  report->Metric("server.response_bytes", n > 0 ? bytes / n : 0.0, "bytes", n);
  report->Metric("process.cpu_s", load.cpu_s, "s", 1);
  report->Metric("trace.overhead_ratio", untraced_ms > 0 ? traced_ms / untraced_ms : 0.0, "ratio",
                 static_cast<int64_t>(requests.size()));
  return qagview::Status::OK();
}

qagview::Status Run(const Options& opt, Report* report) {
  Workload w;
  w.opt = opt;
  QAG_ASSIGN_OR_RETURN(w.plan, MakePlan(opt.workload, opt.seed));
  QAG_ASSIGN_OR_RETURN(w.batches, LoadAppendBodies(opt.inputs));
  Result<LoadRun> load = qagview::Status::Internal("no workload");
  if (opt.workload == "explore") load = RunExplore(&w, report);
  if (opt.workload == "new_query" || opt.workload == "exact_query") {
    load = RunNewQuery(&w, report);
  }
  if (opt.workload == "ingest") load = RunIngest(&w, report);
  QAG_RETURN_IF_ERROR(load.status());
  report->Metric("service.provenance_mismatches", static_cast<double>(w.provenance_mismatches),
                 "count", 1);
  if (opt.trace) QAG_RETURN_IF_ERROR(RunTraced(&w, *load, report));
  return qagview::Status::OK();
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench_driver gen --seed N --inputs DIR\n"
               "       e2ebench_driver run --workload explore|new_query|exact_query|ingest\n"
               "           --seed N --seconds S --trace 0|1 --inputs DIR --server BIN\n"
               "           [--trace-file FILE]\n");
  return 2;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  if (argc < 2) return Usage();
  Options opt;
  opt.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--inputs") {
      opt.inputs = value;
    } else if (flag == "--server") {
      opt.server = value;
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else {
      return Usage();
    }
  }
  if (opt.inputs.empty()) return Usage();
  if (opt.command == "gen") {
    qagview::Status status = EnsureDatasets(opt.seed, opt.inputs);
    if (!status.ok()) {
      std::fprintf(stderr, "gen: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (opt.command != "run" || opt.server.empty() || opt.seconds <= 0) return Usage();
  Report report;
  qagview::Status status = Run(opt, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "run: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ToJson().Dump().c_str());
  return 0;
}
