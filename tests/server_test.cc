// End-to-end coverage of the HTTP front end (server/server.h) over a
// loopback socket:
//
//  * bit-identity: every endpoint's payload equals the direct
//    QueryService struct call, doubles included (the serde round-trip
//    contract);
//  * a malformed-request corpus (truncated bodies, bad JSON, oversized
//    headers, hostile request lines) answered with 4xx/501 — the server
//    never crashes, mirroring csv_fuzz_test's posture;
//  * overload: a full admission queue sheds load with 503 + Retry-After
//    at the acceptor, and the server recovers once pressure lifts;
//  * graceful drain: Shutdown() finishes every admitted request — the
//    transport counters balance exactly and every 2xx the server counted
//    was fully received by a client.
//
// Runs under TSan and ASan+UBSan in CI (the sanitize job lists it
// explicitly), so the acceptor/worker handoff and the shutdown path are
// race-checked, not just functionally checked.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/string_util.h"
#include "server/loadgen.h"
#include "server/serde.h"
#include "server/server.h"
#include "service/query_service.h"
#include "test_util.h"

namespace qagview::server {
namespace {

using json::Json;

constexpr char kHost[] = "127.0.0.1";
constexpr char kSql[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 3 ORDER BY val DESC";

/// The response payload with its per-call provenance stripped: RequestStats
/// (latency, cache flags) legitimately differs between the direct call and
/// the HTTP call; everything else must round-trip bit-for-bit.
template <typename Response>
std::string Fingerprint(Response response) {
  response.stats = service::RequestStats();
  return ToJson(response).Dump();
}

Json MustParse(const std::string& text) {
  Result<Json> doc = Json::Parse(text);
  QAG_CHECK_OK(doc.status());
  return *doc;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<service::QueryService>();
    QAG_CHECK_OK(service_->RegisterTable(
        "ratings", testutil::MakeRatingsTable(71, 1500)));
    ServerOptions options;
    options.num_workers = 3;
    server_ = std::make_unique<HttpServer>(service_.get(), options);
    QAG_CHECK_OK(server_->Start());
  }

  void TearDown() override { server_->Shutdown(); }

  Result<HttpClientResponse> Post(const std::string& target,
                                  const Json& body) {
    return HttpFetch(kHost, server_->port(), "POST", target, body.Dump());
  }

  Result<HttpClientResponse> Get(const std::string& target) {
    return HttpFetch(kHost, server_->port(), "GET", target, "");
  }

  service::QueryHandle OpenHandle() {
    service::QueryRequest request;
    request.sql = kSql;
    request.value_column = "val";
    Result<service::QueryResponse> response = service_->Query(request);
    QAG_CHECK_OK(response.status());
    return response->handle;
  }

  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerTest, QueryIsBitIdenticalToDirectCall) {
  service::QueryRequest request;
  request.sql = kSql;
  request.value_column = "val";

  Result<service::QueryResponse> direct = service_->Query(request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<HttpClientResponse> http = Post("/query", ToJson(request));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::QueryResponse> parsed =
      QueryResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed));
  EXPECT_EQ(parsed->handle, direct->handle);  // same cached session
  // The HTTP repeat of an identical query was a session cache hit.
  EXPECT_TRUE(parsed->stats.cache_hit);
}

TEST_F(ServerTest, SummarizeIsBitIdenticalToDirectCall) {
  service::SummarizeRequest request;
  request.handle = OpenHandle();
  request.params = core::Params{4, 8, 2};

  Result<service::SummarizeResponse> direct = service_->Summarize(request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<HttpClientResponse> http = Post("/summarize", ToJson(request));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::SummarizeResponse> parsed =
      SummarizeResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Doubles included: covered_sum/average must survive JSON exactly.
  EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed));
}

TEST_F(ServerTest, GuidanceAndRetrieveAreBitIdenticalToDirectCalls) {
  service::GuidanceRequest guidance;
  guidance.handle = OpenHandle();
  guidance.top_l = 10;

  Result<service::GuidanceResponse> direct = service_->Guidance(guidance);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<HttpClientResponse> http = Post("/guidance", ToJson(guidance));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::GuidanceResponse> parsed =
      GuidanceResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed));
  ASSERT_FALSE(parsed->min_ks.empty());

  service::RetrieveRequest retrieve;
  retrieve.handle = guidance.handle;
  retrieve.top_l = 10;
  retrieve.d = parsed->d_values.front();
  retrieve.k = parsed->min_ks.front();

  Result<service::RetrieveResponse> direct_solution =
      service_->Retrieve(retrieve);
  ASSERT_TRUE(direct_solution.ok()) << direct_solution.status().ToString();
  Result<HttpClientResponse> http_solution =
      Post("/retrieve", ToJson(retrieve));
  ASSERT_TRUE(http_solution.ok()) << http_solution.status().ToString();
  ASSERT_EQ(http_solution->status, 200) << http_solution->body;
  Result<service::RetrieveResponse> parsed_solution =
      RetrieveResponseFromJson(MustParse(http_solution->body));
  ASSERT_TRUE(parsed_solution.ok()) << parsed_solution.status().ToString();
  EXPECT_EQ(Fingerprint(*direct_solution), Fingerprint(*parsed_solution));
}

TEST_F(ServerTest, ExploreAndRefineAreBitIdenticalToDirectCalls) {
  service::ExploreRequest explore;
  explore.handle = OpenHandle();
  explore.params = core::Params{4, 8, 2};
  explore.max_members = 5;

  Result<service::ExploreResponse> direct = service_->Explore(explore);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<HttpClientResponse> http = Post("/explore", ToJson(explore));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::ExploreResponse> parsed =
      ExploreResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Both rendered display layers travel intact (multi-line strings with
  // escapes are the JSON writer's hardest case).
  EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed));
  EXPECT_EQ(parsed->summary, direct->summary);
  EXPECT_EQ(parsed->expanded, direct->expanded);

  service::RefineRequest refine;
  refine.handle = explore.handle;
  Result<service::RefineResponse> direct_refine = service_->Refine(refine);
  ASSERT_TRUE(direct_refine.ok()) << direct_refine.status().ToString();
  Result<HttpClientResponse> http_refine = Post("/refine", ToJson(refine));
  ASSERT_TRUE(http_refine.ok()) << http_refine.status().ToString();
  ASSERT_EQ(http_refine->status, 200) << http_refine->body;
  Result<service::RefineResponse> parsed_refine =
      RefineResponseFromJson(MustParse(http_refine->body));
  ASSERT_TRUE(parsed_refine.ok()) << parsed_refine.status().ToString();
  EXPECT_EQ(Fingerprint(*direct_refine), Fingerprint(*parsed_refine));
  EXPECT_TRUE(parsed_refine->approx.is_exact);
}

TEST_F(ServerTest, AppendRowsPublishesNewVersionAndRefreshesHandles) {
  service::QueryHandle handle = OpenHandle();
  const uint64_t before = service_->catalog_version();

  service::AppendRowsRequest append;
  append.dataset = "ratings";
  append.rows.push_back({storage::Value::Str("g0v0"),
                         storage::Value::Str("g1v0"),
                         storage::Value::Str("g2v0"),
                         storage::Value::Str("g3v0"),
                         storage::Value::Real(4.75)});

  Result<HttpClientResponse> http = Post("/append_rows", ToJson(append));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::AppendRowsResponse> parsed =
      AppendRowsResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, before + 1);
  EXPECT_EQ(service_->catalog_version(), before + 1);

  // The next use of the handle over HTTP refreshes transparently.
  service::SummarizeRequest summarize;
  summarize.handle = handle;
  summarize.params = core::Params{4, 8, 2};
  Result<HttpClientResponse> warm = Post("/summarize", ToJson(summarize));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->status, 200) << warm->body;
}

TEST_F(ServerTest, StatsAndHealthzEndpoints) {
  Result<HttpClientResponse> health = Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  OpenHandle();
  Result<HttpClientResponse> http = Get("/stats");
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200);
  Json doc = MustParse(http->body);
  const Json* svc = doc.Find("service");
  ASSERT_NE(svc, nullptr);
  Result<service::ServiceStats> stats = ServiceStatsFromJson(*svc);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->queries, 1);
  const Json* transport = doc.Find("server");
  ASSERT_NE(transport, nullptr);
  ASSERT_NE(transport->Find("served_2xx"), nullptr);
  EXPECT_GE(transport->Find("accepted")->AsInt(), 1);
}

TEST_F(ServerTest, ServiceErrorsMapToHttpStatuses) {
  // Unknown handle → NotFound → 404.
  service::SummarizeRequest bad_handle;
  bad_handle.handle = 9999;
  bad_handle.params = core::Params{4, 8, 1};
  Result<HttpClientResponse> http = Post("/summarize", ToJson(bad_handle));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 404);
  Json error = MustParse(http->body);
  ASSERT_NE(error.Find("error"), nullptr);
  EXPECT_EQ(error.Find("error")->Find("code")->AsString(), "NotFound");

  // Bad SQL → 400 with the error envelope.
  service::QueryRequest bad_sql;
  bad_sql.sql = "SELECT FROM WHERE";
  bad_sql.value_column = "val";
  http = Post("/query", ToJson(bad_sql));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 400) << http->body;

  // Unknown endpoint → 404; wrong method → 405.
  http = Post("/no_such_endpoint", Json::Object());
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 404);
  http = Get("/query");
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 405);
}

TEST_F(ServerTest, MalformedRequestCorpusNeverCrashesTheServer) {
  struct RawCase {
    std::string raw;
    int expected_status;
  };
  auto with_body = [](const std::string& head, const std::string& body) {
    return StrCat(head, "Content-Length: ", body.size(), "\r\n\r\n", body);
  };
  const std::string post = "POST /query HTTP/1.1\r\n";
  const std::vector<RawCase> corpus = {
      {"\r\n\r\n", 400},                          // empty request line
      {"GET\r\n\r\n", 400},                       // no target/version
      {"GET /\r\n\r\n", 400},                     // no version
      {"GET / HTTP/2\r\n\r\n", 400},              // unsupported version
      {"get / HTTP/1.1\r\n\r\n", 400},            // lowercase method
      {"G@T / HTTP/1.1\r\n\r\n", 400},            // junk method bytes
      {"GET  / HTTP/1.1\r\n\r\n", 400},           // double space
      {"GET / HTTP/1.1\r\nNoColon\r\n\r\n", 400},   // header missing ':'
      {"GET / HTTP/1.1\r\n: anonymous\r\n\r\n", 400},  // empty header name
      {post + "\r\n", 411},                       // POST, no Content-Length
      {post + "Content-Length: -5\r\n\r\n", 400},
      {post + "Content-Length: kilobyte\r\n\r\n", 400},
      {post + "Content-Length: 9999999\r\n\r\n", 413},  // > max_body_bytes
      {post + "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501},
      {post + "Content-Length: 64\r\n\r\n{\"truncated\":", 400},  // short body
      {post + "Content-Length: 2\r\n\r\n{}{}", 400},  // bytes beyond length
      {with_body(post, "not json at all"), 400},
      {with_body(post, "{}"), 400},                  // missing fields
      {with_body(post, "[1,2,3]"), 400},             // wrong root type
      {with_body(post, "{\"sql\":7,\"value_column\":\"v\"}"), 400},
      {with_body(post, std::string(64, '[')), 400},  // deep-nesting bomb
      {StrCat("GET /healthz HTTP/1.1\r\nX-Pad: ", std::string(20000, 'a'),
              "\r\n\r\n"),
       431},
  };

  for (const RawCase& test_case : corpus) {
    Result<std::string> response =
        HttpExchangeRaw(kHost, server_->port(), test_case.raw);
    ASSERT_TRUE(response.ok())
        << response.status().ToString() << " for: " << test_case.raw;
    const std::string expected_prefix =
        StrCat("HTTP/1.1 ", test_case.expected_status, " ");
    EXPECT_EQ(response->substr(0, expected_prefix.size()), expected_prefix)
        << "request: " << test_case.raw << "\nresponse: " << *response;
  }

  // A peer that connects and says nothing is dropped without a response...
  Result<std::string> silent =
      HttpExchangeRaw(kHost, server_->port(), "");
  ASSERT_TRUE(silent.ok()) << silent.status().ToString();
  EXPECT_TRUE(silent->empty());

  // ... and after the whole corpus the server still serves normally.
  Result<HttpClientResponse> alive = Get("/healthz");
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive->status, 200);
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.served_2xx + stats.client_errors_4xx +
                stats.server_errors_5xx + stats.io_errors,
            stats.admitted);
}

/// Raw connection that connects and deliberately sends nothing — pins a
/// worker (or a queue slot) until the server's read timeout.
int ConnectAndStall(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  QAG_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  QAG_CHECK(::inet_pton(AF_INET, kHost, &addr.sin_addr) == 1);
  QAG_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

TEST(ServerOverloadTest, FullQueueSheds503WithRetryAfterAndRecovers) {
  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable("ratings",
                                     testutil::MakeRatingsTable(9, 400)));
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.retry_after_seconds = 7;
  options.limits.io_timeout_ms = 2000;
  HttpServer server(&service, options);
  QAG_CHECK_OK(server.Start());

  // Stalled connections until two are *admitted*: with one worker and one
  // queue slot, two simultaneously admitted connections mean the worker is
  // pinned and the queue is full (a stall the acceptor sheds instead does
  // not pin anything, so keep adding).
  std::vector<int> stalls;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().admitted < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    stalls.push_back(ConnectAndStall(server.port()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(server.stats().admitted, 2);

  // Probe until admission control sheds one at the door. Probes that slip
  // into a freed queue slot are eventually served — also fine; the queue
  // stays bounded either way.
  bool saw_503 = false;
  std::string retry_after;
  for (int i = 0; i < 50 && !saw_503; ++i) {
    Result<HttpClientResponse> probe =
        HttpFetch(kHost, server.port(), "GET", "/healthz", "");
    if (!probe.ok()) continue;
    if (probe->status == 503) {
      saw_503 = true;
      const std::string* header = probe->FindHeader("Retry-After");
      if (header != nullptr) retry_after = *header;
    }
  }
  EXPECT_TRUE(saw_503);
  EXPECT_EQ(retry_after, "7");
  EXPECT_GE(server.stats().rejected_503, 1);

  // Lift the pressure: the stalled peers hang up, and the server recovers
  // without a restart.
  for (int fd : stalls) ::close(fd);
  bool recovered = false;
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    Result<HttpClientResponse> probe =
        HttpFetch(kHost, server.port(), "GET", "/healthz", "");
    recovered = probe.ok() && probe->status == 200;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
  server.Shutdown();
}

TEST(ServerDrainTest, ShutdownFinishesEveryAdmittedRequest) {
  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable("ratings",
                                     testutil::MakeRatingsTable(5, 1200)));
  ServerOptions options;
  options.num_workers = 2;
  HttpServer server(&service, options);
  QAG_CHECK_OK(server.Start());
  const int port = server.port();

  service::QueryRequest query;
  query.sql = kSql;
  query.value_column = "val";
  Result<service::QueryResponse> opened = service.Query(query);
  QAG_CHECK_OK(opened.status());

  service::SummarizeRequest summarize;
  summarize.handle = opened->handle;
  summarize.params = core::Params{4, 8, 2};
  const std::string body = ToJson(summarize).Dump();

  // A swarm of clients races a shutdown that begins mid-burst. Admitted
  // requests must all complete; connections the drain refuses are allowed
  // to fail at the transport level or be shed with a 503 at the door — but
  // never with a torn response.
  constexpr int kClients = 12;
  std::atomic<int> client_2xx{0};
  std::atomic<int> client_503{0};
  std::atomic<int> transport_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      Result<HttpClientResponse> response =
          HttpFetch(kHost, port, "POST", "/summarize", body);
      if (!response.ok()) {
        transport_failures.fetch_add(1);
      } else if (response->status == 200) {
        client_2xx.fetch_add(1);
      } else if (response->status == 503) {
        client_503.fetch_add(1);
      }
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().admitted < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Shutdown();
  for (std::thread& client : clients) client.join();

  const ServerStats stats = server.stats();
  // Zero-drop: every admitted connection was answered (exactly one
  // response-class counter each), and every 2xx the server recorded was
  // fully received by a client (HttpFetch validates Content-Length).
  EXPECT_EQ(stats.admitted, stats.served_2xx + stats.client_errors_4xx +
                                stats.server_errors_5xx + stats.io_errors);
  EXPECT_EQ(stats.client_errors_4xx, 0);
  EXPECT_EQ(stats.server_errors_5xx, 0);
  EXPECT_EQ(client_2xx.load(), stats.served_2xx);
  EXPECT_GE(stats.served_2xx, 4);
  // Every client got a 200, a 503 shed by the acceptor, or no response;
  // nothing else, and every shed 503 reached its client.
  EXPECT_EQ(client_2xx.load() + client_503.load() + transport_failures.load(),
            kClients);
  EXPECT_EQ(client_503.load(), stats.rejected_503);
}

TEST(ServerLoadgenTest, OpenLoopBurstOverLoopbackAllSucceeds) {
  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable("ratings",
                                     testutil::MakeRatingsTable(3, 1200)));
  ServerOptions options;
  options.num_workers = 3;
  HttpServer server(&service, options);
  QAG_CHECK_OK(server.Start());

  // Warm the session + universe once so the burst measures the warm path.
  service::QueryRequest query;
  query.sql = kSql;
  query.value_column = "val";
  Result<service::QueryResponse> opened = service.Query(query);
  QAG_CHECK_OK(opened.status());
  service::ExploreRequest explore;
  explore.handle = opened->handle;
  explore.params = core::Params{4, 8, 2};
  QAG_CHECK_OK(service.Explore(explore).status());

  service::SummarizeRequest summarize;
  summarize.handle = opened->handle;
  summarize.params = core::Params{4, 8, 2};

  std::vector<LoadgenRequest> script;
  script.push_back({"POST", "/query", ToJson(query).Dump()});
  script.push_back({"POST", "/summarize", ToJson(summarize).Dump()});
  script.push_back({"POST", "/explore", ToJson(explore).Dump()});
  script.push_back({"GET", "/stats", ""});

  LoadgenOptions load;
  load.port = server.port();
  load.rate = 150.0;
  load.total_requests = 90;
  load.num_threads = 4;
  LoadgenResults results = RunOpenLoop(script, load);

  EXPECT_EQ(results.issued, 90);
  EXPECT_EQ(results.ok, 90);
  EXPECT_EQ(results.transport_errors, 0);
  EXPECT_EQ(results.http_503, 0);
  EXPECT_GT(results.achieved_rps, 0.0);
  EXPECT_GT(results.p50_ms, 0.0);
  EXPECT_LE(results.p50_ms, results.p99_ms);
  EXPECT_LE(results.p99_ms, results.p999_ms);
  EXPECT_LE(results.p999_ms, results.max_ms);
  server.Shutdown();
}


// --- Wire golden ----------------------------------------------------------
//
// The JSON text of every request/response struct and of ServiceStats,
// pinned byte for byte: field names, field order, number formatting and
// string escaping are the wire contract clients depend on. Each fixed
// instance must encode to the recorded text, and decoding that text must
// re-encode to the same bytes. The decode-error cases pin the exact
// message naming the offending field.

service::RequestStats GoldenStats() {
  service::RequestStats stats;
  stats.latency_ms = 1.25;
  stats.cache_hit = true;
  stats.coalesced = false;
  stats.built = true;
  stats.refreshed = false;
  stats.approximate = true;
  stats.sample_fraction = 0.125;
  stats.max_bound = 0.1;
  return stats;
}

service::ApproxMeta GoldenApprox() {
  service::ApproxMeta meta;
  meta.is_exact = false;
  meta.sample_fraction = 0.125;
  meta.max_bound = 0.1;
  return meta;
}

core::Solution GoldenSolution() {
  core::Solution solution;
  solution.cluster_ids = {3, 1, 4};
  solution.covered_sum = 12.5;
  solution.covered_count = 5;
  solution.average = 1.0 / 3.0;
  solution.covered_min = -0.5;
  return solution;
}

/// Encodes `value` and compares it with the recorded text, then decodes
/// the text and checks that the result re-encodes to the same bytes.
template <typename T>
void ExpectGolden(const T& value, const std::string& golden,
                  Result<T> (*decode)(const Json&)) {
  const std::string encoded = ToJson(value).Dump();
  EXPECT_EQ(encoded, golden);
  Result<T> decoded = decode(MustParse(golden));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(ToJson(*decoded).Dump(), golden);
}

/// The message of the error `decode` returns for `text` ("" on success).
template <typename T>
std::string DecodeError(Result<T> (*decode)(const Json&),
                        const std::string& text) {
  Result<T> decoded = decode(MustParse(text));
  return decoded.ok() ? std::string() : decoded.status().message();
}

TEST(WireGoldenTest, RequestsEncodeToRecordedBytesAndRoundTrip) {
  service::QueryRequest query;
  query.sql = "SELECT g0, avg(v) AS val FROM t GROUP BY g0 -- \"q\"\n";
  query.value_column = "val";
  query.options.mode = service::QueryMode::kApproxFirst;
  query.options.confidence = 0.9;
  ExpectGolden(query,
               R"json({"sql":"SELECT g0,)json"
               R"json( avg(v) AS val FROM t GROUP BY g0 -- \"q\"\n",)json"
               R"json("value_column":"val","options":{"mode":"approx_first",)json"
               R"json("confidence":0.9}})json",
               &QueryRequestFromJson);

  service::SummarizeRequest summarize;
  summarize.handle = 7;
  summarize.params = core::Params{5, 10, 3};
  ExpectGolden(summarize, R"json({"handle":7,"params":{"k":5,"L":10,"D":3}})json",
               &SummarizeRequestFromJson);

  service::GuidanceRequest guidance;
  guidance.handle = 2;
  guidance.top_l = 12;
  guidance.options.k_min = 3;
  guidance.options.k_max = 9;
  guidance.options.d_values = {1, 2, 4};
  guidance.options.c = 2;
  guidance.options.use_delta_judgment = false;
  guidance.options.num_threads = 6;  // an execution knob: never travels
  ExpectGolden(guidance,
               R"json({"handle":2,"top_l":12,"options":{"k_min":3,"k_max":9,)json"
               R"json("d_values":[1,2,4],"c":2,"use_delta_judgment":false}})json",
               &GuidanceRequestFromJson);

  service::RetrieveRequest retrieve;
  retrieve.handle = 3;
  retrieve.top_l = 16;
  retrieve.d = 2;
  retrieve.k = 6;
  ExpectGolden(retrieve, R"json({"handle":3,"top_l":16,"d":2,"k":6})json",
               &RetrieveRequestFromJson);

  service::ExploreRequest explore;
  explore.handle = 4;
  explore.params = core::Params{3, 6, 1};
  explore.max_members = 0;
  ExpectGolden(explore,
               R"json({"handle":4,"params":{"k":3,"L":6,"D":1},)json"
               R"json("max_members":0})json",
               &ExploreRequestFromJson);

  service::RefineRequest refine;
  refine.handle = 5;
  ExpectGolden(refine, R"json({"handle":5})json", &RefineRequestFromJson);

  service::AppendRowsRequest append;
  append.dataset = "ratings";
  append.rows.push_back({storage::Value::Str("g0v1"), storage::Value::Int(-3),
                         storage::Value::Real(4.75), storage::Value::Null()});
  append.rows.push_back({});
  ExpectGolden(append,
               R"json({"dataset":"ratings","rows":[["g0v1",-3,4.75,null],)json"
               R"json([]]})json",
               &AppendRowsRequestFromJson);
}

TEST(WireGoldenTest, ResponsesEncodeToRecordedBytesAndRoundTrip) {
  service::QueryResponse query;
  query.handle = 9;
  query.num_answers = 120;
  query.num_attrs = 3;
  query.confidence = 0.95;
  query.approx = GoldenApprox();
  query.stats = GoldenStats();
  ExpectGolden(query,
               R"json({"handle":9,"num_answers":120,"num_attrs":3,)json"
               R"json("confidence":0.95,"approx":{"is_exact":false,)json"
               R"json("sample_fraction":0.125,"max_bound":0.1},)json"
               R"json("stats":{"latency_ms":1.25,"cache_hit":true,)json"
               R"json("coalesced":false,"built":true,"refreshed":false,)json"
               R"json("approximate":true,"sample_fraction":0.125,)json"
               R"json("max_bound":0.1}})json",
               &QueryResponseFromJson);

  service::SummarizeResponse summarize;
  summarize.solution = GoldenSolution();
  summarize.approx = GoldenApprox();
  summarize.stats = GoldenStats();
  ExpectGolden(summarize,
               R"json({"solution":{"cluster_ids":[3,1,4],"covered_sum":12.5,)json"
               R"json("covered_count":5,"average":0.3333333333333333,)json"
               R"json("covered_min":-0.5},"approx":{"is_exact":false,)json"
               R"json("sample_fraction":0.125,"max_bound":0.1},)json"
               R"json("stats":{"latency_ms":1.25,"cache_hit":true,)json"
               R"json("coalesced":false,"built":true,"refreshed":false,)json"
               R"json("approximate":true,"sample_fraction":0.125,)json"
               R"json("max_bound":0.1}})json",
               &SummarizeResponseFromJson);

  service::GuidanceResponse guidance;
  guidance.store_l = 12;
  guidance.k_max = 9;
  guidance.d_values = {1, 2};
  guidance.min_ks = {2, 4};
  guidance.num_intervals = 123456789012;
  guidance.naive_entries = 42;
  guidance.approx = GoldenApprox();
  guidance.stats = GoldenStats();
  ExpectGolden(guidance,
               R"json({"store_l":12,"k_max":9,"d_values":[1,2],"min_ks":[2,)json"
               R"json(4],"num_intervals":123456789012,"naive_entries":42,)json"
               R"json("approx":{"is_exact":false,"sample_fraction":0.125,)json"
               R"json("max_bound":0.1},"stats":{"latency_ms":1.25,)json"
               R"json("cache_hit":true,"coalesced":false,"built":true,)json"
               R"json("refreshed":false,"approximate":true,)json"
               R"json("sample_fraction":0.125,"max_bound":0.1}})json",
               &GuidanceResponseFromJson);

  service::RetrieveResponse retrieve;
  retrieve.solution = GoldenSolution();
  retrieve.approx = GoldenApprox();
  retrieve.stats = GoldenStats();
  ExpectGolden(retrieve,
               R"json({"solution":{"cluster_ids":[3,1,4],"covered_sum":12.5,)json"
               R"json("covered_count":5,"average":0.3333333333333333,)json"
               R"json("covered_min":-0.5},"approx":{"is_exact":false,)json"
               R"json("sample_fraction":0.125,"max_bound":0.1},)json"
               R"json("stats":{"latency_ms":1.25,"cache_hit":true,)json"
               R"json("coalesced":false,"built":true,"refreshed":false,)json"
               R"json("approximate":true,"sample_fraction":0.125,)json"
               R"json("max_bound":0.1}})json",
               &RetrieveResponseFromJson);

  service::ExploreResponse explore;
  explore.solution = GoldenSolution();
  core::ClusterView cluster;
  cluster.cluster_id = 4;
  cluster.pattern = "(1980, *, M)";
  cluster.average = 4.125;
  cluster.count = 3;
  cluster.top_count = 2;
  cluster.member_ranks = {1, 2, 7};
  explore.view.clusters = {cluster, core::ClusterView()};
  explore.view.solution_average = 2.0 / 3.0;
  explore.view.solution_count = 3;
  explore.summary = "1. (1980, *, M)\tavg 4.125\n";
  explore.expanded = "(1980, *, M)\n  #1 \"a\\b\" caf\xc3\xa9\n";
  explore.approx = GoldenApprox();
  explore.stats = GoldenStats();
  ExpectGolden(explore,
               R"json({"solution":{"cluster_ids":[3,1,4],"covered_sum":12.5,)json"
               R"json("covered_count":5,"average":0.3333333333333333,)json"
               R"json("covered_min":-0.5},)json"
               R"json("view":{"clusters":[{"cluster_id":4,"pattern":"(1980,)json"
               R"json( *, M)","average":4.125,"count":3,"top_count":2,)json"
               R"json("member_ranks":[1,2,7]},{"cluster_id":-1,"pattern":"",)json"
               R"json("average":0,"count":0,"top_count":0,)json"
               R"json("member_ranks":[]}],)json"
               R"json("solution_average":0.6666666666666666,)json"
               R"json("solution_count":3},"summary":"1. (1980, *,)json"
               R"json( M)\tavg 4.125\n","expanded":"(1980, *,)json"
               R"json( M)\n  #1 \"a\\b\" café\n","approx":{"is_exact":false,)json"
               R"json("sample_fraction":0.125,"max_bound":0.1},)json"
               R"json("stats":{"latency_ms":1.25,"cache_hit":true,)json"
               R"json("coalesced":false,"built":true,"refreshed":false,)json"
               R"json("approximate":true,"sample_fraction":0.125,)json"
               R"json("max_bound":0.1}})json",
               &ExploreResponseFromJson);

  service::RefineResponse refine;
  refine.approx = service::ApproxMeta();
  refine.stats = GoldenStats();
  ExpectGolden(refine,
               R"json({"approx":{"is_exact":true,"sample_fraction":1,)json"
               R"json("max_bound":0},"stats":{"latency_ms":1.25,)json"
               R"json("cache_hit":true,"coalesced":false,"built":true,)json"
               R"json("refreshed":false,"approximate":true,)json"
               R"json("sample_fraction":0.125,"max_bound":0.1}})json",
               &RefineResponseFromJson);

  service::AppendRowsResponse append;
  append.version = 17;
  append.stats = GoldenStats();
  ExpectGolden(append,
               R"json({"version":17,"stats":{"latency_ms":1.25,)json"
               R"json("cache_hit":true,"coalesced":false,"built":true,)json"
               R"json("refreshed":false,"approximate":true,)json"
               R"json("sample_fraction":0.125,"max_bound":0.1}})json",
               &AppendRowsResponseFromJson);

  service::ServiceStats stats;
  int64_t counter = 1;
  stats.datasets = counter++;
  stats.sessions = counter++;
  stats.queries = counter++;
  stats.query_cache_hits = counter++;
  stats.query_coalesced = counter++;
  stats.summarize_requests = counter++;
  stats.guidance_requests = counter++;
  stats.retrieve_requests = counter++;
  stats.explore_requests = counter++;
  stats.cache_hits = counter++;
  stats.coalesced_waits = counter++;
  stats.builds = counter++;
  stats.refreshes = counter++;
  stats.refresh_full_reuses = counter++;
  stats.approx_queries = counter++;
  stats.approx_served = counter++;
  stats.refine_requests = counter++;
  stats.refinements = counter++;
  stats.refinements_superseded = counter++;
  stats.graveyard_size = counter++;
  stats.live_generations = counter++;
  stats.generations_evicted = counter++;
  stats.prefetch_issued = counter++;
  stats.prefetch_hits = counter++;
  stats.warm_start_loads = counter++;
  stats.total_latency_ms = 1234.5;
  stats.max_latency_ms = 0.75;
  ExpectGolden(stats,
               R"json({"datasets":1,"sessions":2,"queries":3,)json"
               R"json("query_cache_hits":4,"query_coalesced":5,)json"
               R"json("summarize_requests":6,"guidance_requests":7,)json"
               R"json("retrieve_requests":8,"explore_requests":9,)json"
               R"json("cache_hits":10,"coalesced_waits":11,"builds":12,)json"
               R"json("refreshes":13,"refresh_full_reuses":14,)json"
               R"json("approx_queries":15,"approx_served":16,)json"
               R"json("refine_requests":17,"refinements":18,)json"
               R"json("refinements_superseded":19,"graveyard_size":20,)json"
               R"json("live_generations":21,"generations_evicted":22,)json"
               R"json("prefetch_issued":23,"prefetch_hits":24,)json"
               R"json("warm_start_loads":25,"total_latency_ms":1234.5,)json"
               R"json("max_latency_ms":0.75,"requests":50})json",
               &ServiceStatsFromJson);
}

TEST(WireGoldenTest, DecodeErrorsNameTheField) {
  // Requests: a missing field, then a mistyped one.
  EXPECT_EQ(DecodeError(&QueryRequestFromJson, R"({"value_column":"v"})"),
            "missing field \"sql\"");
  EXPECT_EQ(DecodeError(&QueryRequestFromJson,
                        R"({"sql":"s","value_column":"v",)"
                        R"("options":{"mode":"fast","confidence":0.9}})"),
            "unknown query mode \"fast\"");
  EXPECT_EQ(DecodeError(&QueryRequestFromJson,
                        R"({"sql":"s","value_column":"v",)"
                        R"("options":{"mode":"approx_only",)"
                        R"("confidence":"x"}})"),
            "field \"confidence\" must be a number");
  EXPECT_EQ(DecodeError(&SummarizeRequestFromJson, R"({"handle":1})"),
            "missing field \"params\"");
  EXPECT_EQ(DecodeError(&SummarizeRequestFromJson,
                        R"({"handle":1,"params":{"k":"4","L":8,"D":2}})"),
            "field \"k\" must be an integer");
  EXPECT_EQ(DecodeError(&GuidanceRequestFromJson, R"({"handle":1})"),
            "missing field \"top_l\"");
  EXPECT_EQ(DecodeError(&GuidanceRequestFromJson,
                        R"({"handle":1,"top_l":8,"options":{"k_min":2,)"
                        R"("k_max":4,"d_values":[1,"2"],"c":3,)"
                        R"("use_delta_judgment":true}})"),
            "field \"d_values\" must hold integers");
  EXPECT_EQ(DecodeError(&RetrieveRequestFromJson,
                        R"({"handle":1,"top_l":8,"d":2})"),
            "missing field \"k\"");
  EXPECT_EQ(DecodeError(&RetrieveRequestFromJson,
                        R"({"handle":1.5,"top_l":8,"d":2,"k":3})"),
            "field \"handle\" must be an integer");
  EXPECT_EQ(DecodeError(&ExploreRequestFromJson,
                        R"({"params":{"k":4,"L":8,"D":2}})"),
            "missing field \"handle\"");
  EXPECT_EQ(DecodeError(&ExploreRequestFromJson,
                        R"({"handle":1,"params":{"k":4,"L":8,"D":2},)"
                        R"("max_members":"all"})"),
            "field \"max_members\" must be an integer");
  EXPECT_EQ(DecodeError(&RefineRequestFromJson, R"({})"),
            "missing field \"handle\"");
  EXPECT_EQ(DecodeError(&RefineRequestFromJson, R"({"handle":null})"),
            "field \"handle\" must be an integer");
  EXPECT_EQ(DecodeError(&AppendRowsRequestFromJson, R"({"rows":[]})"),
            "missing field \"dataset\"");
  EXPECT_EQ(DecodeError(&AppendRowsRequestFromJson,
                        R"({"dataset":"t","rows":[1]})"),
            "\"rows\" must be an array of arrays");
  EXPECT_EQ(DecodeError(&AppendRowsRequestFromJson,
                        R"({"dataset":"t","rows":[[true]]})"),
            "row cells must be null, string, or number");
  EXPECT_EQ(DecodeError(&QueryRequestFromJson, R"([])"),
            "expected a JSON object");

  // Responses and ServiceStats.
  const std::string approx =
      R"("approx":{"is_exact":true,"sample_fraction":1,"max_bound":0})";
  const std::string stats =
      R"("stats":{"latency_ms":1,"cache_hit":false,"coalesced":false,)"
      R"("built":false,"refreshed":false,"approximate":false,)"
      R"("sample_fraction":1,"max_bound":0})";
  const std::string solution =
      R"("solution":{"cluster_ids":[1],"covered_sum":1,"covered_count":1,)"
      R"("average":1,"covered_min":1})";
  EXPECT_EQ(DecodeError(&QueryResponseFromJson,
                        R"({"handle":1,"num_answers":3,"confidence":0,)" +
                            approx + "," + stats + "}"),
            "missing field \"num_attrs\"");
  EXPECT_EQ(DecodeError(&QueryResponseFromJson,
                        R"({"handle":1,"num_answers":3,"num_attrs":2,)"
                        R"("confidence":0,"approx":{"is_exact":1,)"
                        R"("sample_fraction":1,"max_bound":0},)" +
                            stats + "}"),
            "field \"is_exact\" must be a boolean");
  EXPECT_EQ(DecodeError(&SummarizeResponseFromJson,
                        "{" + solution + "," + approx + "}"),
            "missing field \"stats\"");
  EXPECT_EQ(DecodeError(&SummarizeResponseFromJson,
                        R"({"solution":{"cluster_ids":[1],"covered_sum":1,)"
                        R"("covered_count":1,"average":"high",)"
                        R"("covered_min":1},)" +
                            approx + "," + stats + "}"),
            "field \"average\" must be a number");
  EXPECT_EQ(DecodeError(&GuidanceResponseFromJson,
                        R"({"store_l":8,"k_max":4,"d_values":[1],)"
                        R"("num_intervals":3,"naive_entries":4,)" +
                            approx + "," + stats + "}"),
            "missing field \"min_ks\"");
  EXPECT_EQ(DecodeError(&GuidanceResponseFromJson,
                        R"({"store_l":8,"k_max":4,"d_values":1,"min_ks":[2],)"
                        R"("num_intervals":3,"naive_entries":4,)" +
                            approx + "," + stats + "}"),
            "field \"d_values\" must be an array");
  EXPECT_EQ(DecodeError(&RetrieveResponseFromJson,
                        "{" + approx + "," + stats + "}"),
            "missing field \"solution\"");
  EXPECT_EQ(DecodeError(&RetrieveResponseFromJson,
                        "{" + solution + "," + approx +
                            R"(,"stats":{"latency_ms":1,"cache_hit":"no"}})"),
            "field \"cache_hit\" must be a boolean");
  EXPECT_EQ(DecodeError(&ExploreResponseFromJson,
                        "{" + solution +
                            R"(,"view":{"clusters":[],"solution_average":1,)"
                            R"("solution_count":1},"summary":"s",)" +
                            approx + "," + stats + "}"),
            "missing field \"expanded\"");
  EXPECT_EQ(DecodeError(&ExploreResponseFromJson,
                        "{" + solution +
                            R"(,"view":{"clusters":{},"solution_average":1,)"
                            R"("solution_count":1},"summary":"s",)"
                            R"("expanded":"e",)" +
                            approx + "," + stats + "}"),
            "\"clusters\" must be an array");
  EXPECT_EQ(DecodeError(&ExploreResponseFromJson,
                        "{" + solution +
                            R"(,"view":{"clusters":[{"cluster_id":1,)"
                            R"("pattern":7}],"solution_average":1,)"
                            R"("solution_count":1},"summary":"s",)"
                            R"("expanded":"e",)" +
                            approx + "," + stats + "}"),
            "field \"pattern\" must be a string");
  EXPECT_EQ(DecodeError(&RefineResponseFromJson, "{" + stats + "}"),
            "missing field \"approx\"");
  EXPECT_EQ(DecodeError(&RefineResponseFromJson,
                        R"({"approx":[],)" + stats + "}"),
            "expected a JSON object");
  EXPECT_EQ(DecodeError(&AppendRowsResponseFromJson, "{" + stats + "}"),
            "missing field \"version\"");
  EXPECT_EQ(DecodeError(&AppendRowsResponseFromJson,
                        R"({"version":"1",)" + stats + "}"),
            "field \"version\" must be an integer");
  EXPECT_EQ(DecodeError(&ServiceStatsFromJson, R"({"datasets":1})"),
            "missing field \"sessions\"");
  EXPECT_EQ(DecodeError(&ServiceStatsFromJson, R"({"datasets":true})"),
            "field \"datasets\" must be an integer");
}

}  // namespace
}  // namespace qagview::server
