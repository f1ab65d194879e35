/**
 * @file
 * Unit tests for the rrserve subsystem (docs/SERVE.md), all without
 * sockets except the HTTP framing cases, which run over a local
 * socketpair: canonical-key stability, the result cache's
 * byte-identity and LRU contracts, coalescing equivalence against
 * independently-served requests, admission-queue backpressure, and
 * the protocol parser's hostile-input behavior.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/env.hh"
#include "exp/json_in.hh"
#include "exp/report.hh"
#include "serve/admission.hh"
#include "serve/broker.hh"
#include "serve/cache.hh"
#include "serve/coalesce.hh"
#include "serve/http.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace {

using namespace rr;
using namespace rr::serve;

ErrorCode
rejectionCode(const std::string &body)
{
    try {
        (void)parseRequest(body);
    } catch (const ProtocolError &error) {
        return error.code;
    }
    ADD_FAILURE() << "parseRequest accepted: " << body;
    return ErrorCode::AuditFailure;
}

// --- canonical keys ---------------------------------------------------

TEST(ServeProtocol, CanonicalKeyIgnoresSpellingAndOrder)
{
    // Same request: different key order, whitespace, list order, and
    // one spells out defaults the other leaves implicit.
    const ServeRequest a = parseRequest(
        "{\"spec\": {\"family\": \"cache\", \"runLength\": 16, "
        "\"threads\": 8, \"seeds\": 2, \"archs\": [\"flexible\", "
        "\"fixed\"]}, "
        "\"sweep\": {\"runLengths\": [16, 8, 16]}}");
    const ServeRequest b = parseRequest(
        "{ \"sweep\" : { \"runLengths\" : [ 8 , 16 ] } ,\n"
        "  \"spec\" : { \"seeds\" : 2, \"archs\": [\"fixed\", "
        "\"flexible\"], \"numRegs\": 128, \"latency\": 200,\n"
        "    \"threads\" : 8, \"runLength\": 16, "
        "\"family\" : \"cache\" } }");
    EXPECT_EQ(canonicalKey(a), canonicalKey(b));

    // Different requests must not collide on the canonical key.
    const ServeRequest c = parseRequest(
        "{\"spec\": {\"family\": \"cache\", \"runLength\": 16, "
        "\"threads\": 8, \"seeds\": 3}}");
    EXPECT_NE(canonicalKey(a), canonicalKey(c));
}

TEST(ServeProtocol, DefaultsAreFilledIntoTheKey)
{
    // An empty spec and one spelling out every default are the same
    // request, so the cache must treat them as one entry.
    const ServeRequest bare = parseRequest("{\"spec\": {}}");
    const ServeRequest spelled = parseRequest(
        "{\"spec\": {\"family\": \"cache\", \"runLength\": 32, "
        "\"latency\": 200, \"threads\": 64, \"numRegs\": 128, "
        "\"minContextSize\": 4, \"regsLo\": 6, \"regsHi\": 24, "
        "\"fixedContextRegs\": 32, \"seeds\": 3, "
        "\"archs\": [\"flexible\", \"fixed\"]}}");
    EXPECT_EQ(canonicalKey(bare), canonicalKey(spelled));
}

TEST(ServeProtocol, UnitExpansionMatchesDeclaredCount)
{
    const ServeRequest request = parseRequest(
        "{\"spec\": {\"threads\": 8, \"seeds\": 2}, "
        "\"sweep\": {\"runLengths\": [8, 16], "
        "\"latencies\": [100, 200]}}");
    const std::vector<SimUnit> units = expandUnits(request);
    EXPECT_EQ(units.size(), request.units());
    EXPECT_EQ(units.size(), 2u * 2u * 2u * 2u);

    // Unit keys are unique within one request.
    std::vector<std::string> keys;
    for (const SimUnit &unit : units)
        keys.push_back(unitKey(unit));
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

// --- result cache -----------------------------------------------------

TEST(ServeCache, HitReturnsStoredBytesAndCounts)
{
    ResultCache cache(4);
    EXPECT_FALSE(cache.get("k1").has_value());
    cache.put("k1", "payload-one");
    const auto hit = cache.get("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "payload-one");

    const CacheCounters counters = cache.counters();
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.insertions, 1u);
    EXPECT_EQ(counters.evictions, 0u);
    EXPECT_EQ(counters.entries, 1u);
}

TEST(ServeCache, EvictsLeastRecentlyUsed)
{
    ResultCache cache(2);
    cache.put("a", "A");
    cache.put("b", "B");
    // Touch "a" so "b" becomes the eviction candidate.
    ASSERT_TRUE(cache.get("a").has_value());
    cache.put("c", "C");

    EXPECT_FALSE(cache.get("b").has_value());
    EXPECT_TRUE(cache.get("a").has_value());
    EXPECT_TRUE(cache.get("c").has_value());
    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_EQ(cache.counters().entries, 2u);
}

TEST(ServeCache, ZeroCapacityDisablesStorage)
{
    ResultCache cache(0);
    cache.put("k", "v");
    EXPECT_FALSE(cache.get("k").has_value());
    EXPECT_EQ(cache.counters().insertions, 0u);
}

// --- coalescing -------------------------------------------------------

TEST(ServeCoalesce, OverlappingSweepsShareUnits)
{
    const ServeRequest a = parseRequest(
        "{\"spec\": {\"threads\": 8, \"seeds\": 2}, "
        "\"sweep\": {\"runLengths\": [8, 16]}}");
    const ServeRequest b = parseRequest(
        "{\"spec\": {\"threads\": 8, \"seeds\": 2}, "
        "\"sweep\": {\"runLengths\": [16, 32]}}");

    const BatchPlan plan = planBatch({a, b});
    EXPECT_EQ(plan.totalUnits, a.units() + b.units());
    // The R=16 units (2 archs x 2 seeds) are simulated only once.
    EXPECT_EQ(plan.saved(), 4u);
    ASSERT_EQ(plan.assignments.size(), 2u);
    EXPECT_EQ(plan.assignments[0].size(), a.units());
    EXPECT_EQ(plan.assignments[1].size(), b.units());
}

TEST(ServeCoalesce, CoalescedEqualsIndependentByteForByte)
{
    const std::string body_a =
        "{\"spec\": {\"threads\": 8, \"seeds\": 2}, "
        "\"sweep\": {\"runLengths\": [8, 16]}}";
    const std::string body_b =
        "{\"spec\": {\"threads\": 8, \"seeds\": 2}, "
        "\"sweep\": {\"runLengths\": [16, 32]}}";

    // One broker serves both requests as a coalesced batch; two
    // fresh brokers serve them independently. The response bytes
    // must be identical either way.
    Broker batched(0, 2);
    const std::vector<ServeResult> together =
        batched.serveBatch({parseRequest(body_a),
                            parseRequest(body_b)});
    ASSERT_EQ(together.size(), 2u);
    EXPECT_EQ(together[0].status, 200);
    EXPECT_EQ(together[1].status, 200);

    Broker alone_a(0, 2);
    Broker alone_b(0, 2);
    const ServeResult solo_a = alone_a.serveBody(body_a);
    const ServeResult solo_b = alone_b.serveBody(body_b);
    EXPECT_EQ(together[0].body, solo_a.body);
    EXPECT_EQ(together[1].body, solo_b.body);

    // Coalescing really happened: 16 units requested, 12 simulated.
    EXPECT_EQ(batched.counters().unitsTotal, 16u);
    EXPECT_EQ(batched.counters().unitsUnique, 12u);
}

TEST(ServeBroker, CacheHitIsByteIdenticalToColdRun)
{
    const std::string body =
        "{\"spec\": {\"family\": \"sync\", \"runLength\": 12, "
        "\"threads\": 8, \"seeds\": 2}}";
    Broker broker(8, 2);
    const ServeResult cold = broker.serveBody(body);
    const ServeResult hot = broker.serveBody(body);
    EXPECT_EQ(cold.status, 200);
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_TRUE(hot.cacheHit);
    EXPECT_EQ(cold.body, hot.body);

    // A respelled-but-equal request also hits.
    const ServeResult respelled = broker.serveBody(
        "{\"spec\": {\"seeds\": 2, \"threads\": 8, "
        "\"runLength\": 12, \"family\": \"sync\"}}");
    EXPECT_TRUE(respelled.cacheHit);
    EXPECT_EQ(respelled.body, cold.body);

    const CacheCounters counters = broker.cacheCounters();
    EXPECT_EQ(counters.hits, 2u);
    EXPECT_EQ(counters.misses, 1u);
}

TEST(ServeBroker, ServedDocumentValidatesAsBenchV1)
{
    Broker broker(0, 2);
    const ServeResult result = broker.serveBody(
        "{\"spec\": {\"threads\": 8, \"seeds\": 2}}");
    ASSERT_EQ(result.status, 200);
    std::string error;
    const auto doc = exp::parseJson(result.body, &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_TRUE(exp::validateReportJson(*doc).empty());
}

// The worker count is resolved when the broker is built: a garbage
// RR_BENCH_JOBS is a typed error there, never an exit from inside a
// serve batch, and an explicit count never reads the environment.
TEST(ServeBroker, WorkerCountIsResolvedAtConstruction)
{
    ::setenv("RR_BENCH_JOBS", "abc", 1);
    try {
        Broker broker(8, 0);
        ADD_FAILURE() << "garbage RR_BENCH_JOBS was accepted";
    } catch (const exp::EnvError &error) {
        EXPECT_STREQ(error.what(), "RR_BENCH_JOBS: expected an "
                                   "unsigned integer, got 'abc'");
    }
    ServeOptions options;
    options.port = 0;
    EXPECT_THROW(Server server(options), exp::EnvError);

    Broker explicitJobs(8, 2);
    EXPECT_EQ(explicitJobs.serveBody("{\"spec\": {\"threads\": 8}}")
                  .status,
              200);
    ::unsetenv("RR_BENCH_JOBS");

    Broker fromEnv(8, 0);
    ::setenv("RR_BENCH_JOBS", "abc", 1);
    EXPECT_EQ(fromEnv.serveBody("{\"spec\": {\"threads\": 8}}").status,
              200);
    ::unsetenv("RR_BENCH_JOBS");
}

TEST(ServeBroker, AuditedUnitConservesCycles)
{
    SimUnit unit;
    unit.point.threads = 8;
    const UnitResult result = runAuditedUnit(unit);
    EXPECT_TRUE(result.auditOk) << result.auditProblem;
    EXPECT_GT(result.efficiency, 0.0);
}

// --- admission control ------------------------------------------------

TEST(ServeAdmission, RejectsWhenFullAndDrainsAfterClose)
{
    AdmissionQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_FALSE(queue.tryPush(3)); // full: the 429 path
    EXPECT_EQ(queue.depth(), 2u);

    queue.close();
    EXPECT_FALSE(queue.tryPush(4)); // closed: refuse new work

    // Graceful drain: queued work is still handed out after close.
    const std::vector<int> first = queue.popBatch(1);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0], 1);
    const std::vector<int> rest = queue.popBatch(8);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0], 2);
    EXPECT_TRUE(queue.popBatch(8).empty()); // closed-and-drained

    const AdmissionCounters counters = queue.counters();
    EXPECT_EQ(counters.accepted, 2u);
    EXPECT_EQ(counters.rejected, 2u);
    EXPECT_EQ(counters.maxDepth, 2u);
}

// --- hostile inputs: protocol parser ----------------------------------

TEST(ServeHostile, MalformedJsonIsBadJson)
{
    EXPECT_EQ(rejectionCode("not json at all"), ErrorCode::BadJson);
    EXPECT_EQ(rejectionCode("{\"spec\": {\"fam"), ErrorCode::BadJson);
    EXPECT_EQ(rejectionCode(""), ErrorCode::BadJson);
}

TEST(ServeHostile, WrongShapesAreBadRequest)
{
    EXPECT_EQ(rejectionCode("[1, 2]"), ErrorCode::BadRequest);
    EXPECT_EQ(rejectionCode("{}"), ErrorCode::BadRequest);
    EXPECT_EQ(rejectionCode("{\"bogus\": 1}"), ErrorCode::BadRequest);
    EXPECT_EQ(rejectionCode("{\"spec\": {\"bogus\": 1}}"),
              ErrorCode::BadRequest);
    EXPECT_EQ(rejectionCode("{\"spec\": {\"family\": 5}}"),
              ErrorCode::BadRequest);
    EXPECT_EQ(rejectionCode("{\"spec\": {\"family\": \"quantum\"}}"),
              ErrorCode::BadRequest);
    EXPECT_EQ(rejectionCode("{\"spec\": {\"runLength\": -4}}"),
              ErrorCode::BadRequest);
    EXPECT_EQ(rejectionCode("{\"spec\": {\"archs\": []}}"),
              ErrorCode::BadRequest);
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {}, \"sweep\": {\"runLengths\": "
                  "[1, \"two\"]}}"),
              ErrorCode::BadRequest);
}

TEST(ServeHostile, LimitsAreEnforced)
{
    EXPECT_EQ(rejectionCode("{\"spec\": {\"seeds\": 1000}}"),
              ErrorCode::Limit);
    EXPECT_EQ(rejectionCode("{\"spec\": {\"threads\": 0}}"),
              ErrorCode::Limit);
    std::string long_sweep = "{\"spec\": {}, \"sweep\": "
                             "{\"runLengths\": [1";
    for (int i = 2; i <= 17; ++i)
        long_sweep += ", " + std::to_string(i);
    long_sweep += "]}}";
    EXPECT_EQ(rejectionCode(long_sweep), ErrorCode::Limit);

    // 16 runs x 16 latencies x 3 archs x 16 seeds > 1024 units.
    std::string runs;
    std::string lats;
    for (int i = 1; i <= 16; ++i) {
        runs += (i > 1 ? ", " : "") + std::to_string(i * 2);
        lats += (i > 1 ? ", " : "") + std::to_string(i * 100);
    }
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {\"seeds\": 16, \"archs\": "
                  "[\"flexible\", \"fixed\", \"add\"]}, "
                  "\"sweep\": {\"runLengths\": [" +
                  runs + "], \"latencies\": [" + lats + "]}}"),
              ErrorCode::Limit);
}

TEST(ServeHostile, SpecValidatorRejectionsAreBadSpec)
{
    // Non-power-of-two minimum context size: the SimulationSpec
    // builder's rule, surfaced as a clean protocol error.
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {\"minContextSize\": 3}}"),
              ErrorCode::BadSpec);
    // Register demand exceeding the register file.
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {\"numRegs\": 32, \"regsLo\": 6, "
                  "\"regsHi\": 64}}"),
              ErrorCode::BadSpec);
}

TEST(ServeHostile, CycleValuesAbove2To32AreBadSpec)
{
    // A latency past 2^64 used to narrow to the rows of latency 1,
    // and a 1e17 run length rounded the geometric divisor to 0.
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {\"family\": \"cache\", "
                  "\"latency\": 2e19}}"),
              ErrorCode::BadSpec);
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {\"family\": \"cache\", "
                  "\"latency\": 1e30}}"),
              ErrorCode::BadSpec);
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {\"family\": \"sync\", "
                  "\"runLength\": 1e17}}"),
              ErrorCode::BadSpec);
    // Both ends of a sweep list are probed.
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {}, \"sweep\": {\"latencies\": "
                  "[100, 1e30]}}"),
              ErrorCode::BadSpec);
    EXPECT_EQ(rejectionCode(
                  "{\"spec\": {}, \"sweep\": {\"runLengths\": "
                  "[0.5, 16]}}"),
              ErrorCode::BadSpec);
    EXPECT_NO_THROW(
        (void)parseRequest("{\"spec\": {\"latency\": 4294967296}}"));
}

TEST(ServeHostile, SubUnitRunLengthIsBadSpecAndServingContinues)
{
    Broker broker(0, 1);
    for (const std::string family : {"cache", "sync"}) {
        const ServeResult bad = broker.serveBody(
            "{\"spec\": {\"family\": \"" + family +
            "\", \"runLength\": 0.5}}");
        EXPECT_EQ(bad.status, 400) << family;
        EXPECT_NE(bad.body.find("bad-spec"), std::string::npos)
            << family;
        const ServeResult good = broker.serveBody(
            "{\"spec\": {\"family\": \"" + family +
            "\", \"runLength\": 16, \"threads\": 4, "
            "\"seeds\": 1}}");
        EXPECT_EQ(good.status, 200) << family;
    }
}

TEST(ServeHostile, ErrorsBecomeCleanDocumentsNotAborts)
{
    Broker broker(0, 1);
    const ServeResult result =
        broker.serveBody("{\"spec\": {\"minContextSize\": 3}}");
    EXPECT_EQ(result.status, 400);
    EXPECT_NE(result.body.find("rr.serve.error.v1"),
              std::string::npos);
    EXPECT_NE(result.body.find("bad-spec"), std::string::npos);
    EXPECT_EQ(broker.counters().simulations, 0u);
}

// --- hostile inputs: HTTP framing -------------------------------------

namespace {

/** Feed @p wire to readHttpRequest over a socketpair. */
HttpRequest
parseWire(const std::string &wire, std::size_t max_body)
{
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_EQ(::write(fds[1], wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    ::close(fds[1]); // EOF after the payload
    HttpRequest request = readHttpRequest(fds[0], max_body);
    ::close(fds[0]);
    return request;
}

} // namespace

TEST(ServeHttp, ParsesAWellFormedPost)
{
    const HttpRequest request = parseWire(
        "POST /v1/simulate HTTP/1.1\r\n"
        "Content-Length: 4\r\n\r\nbody",
        1024);
    ASSERT_TRUE(request.ok()) << request.errorReason;
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.target, "/v1/simulate");
    EXPECT_EQ(request.body, "body");
}

TEST(ServeHttp, OversizedBodyIs413WithoutReadingIt)
{
    const HttpRequest request = parseWire(
        "POST /v1/simulate HTTP/1.1\r\n"
        "Content-Length: 99999\r\n\r\n",
        1024);
    EXPECT_EQ(request.errorStatus, 413);
}

TEST(ServeHttp, TruncatedAndMalformedFramesAre400)
{
    EXPECT_EQ(parseWire("POST /v1/sim", 1024).errorStatus, 400);
    EXPECT_EQ(parseWire("BANANAS\r\n\r\n", 1024).errorStatus, 400);
    EXPECT_EQ(parseWire("POST /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
                        1024)
                  .errorStatus,
              400);
    EXPECT_EQ(parseWire("POST /x HTTP/1.1\r\n"
                        "Content-Length: 10x\r\n\r\n",
                        1024)
                  .errorStatus,
              400);
    // Declared length shorter than the delivered body.
    EXPECT_EQ(parseWire("POST /x HTTP/1.1\r\n"
                        "Content-Length: 2\r\n\r\nbody",
                        1024)
                  .errorStatus,
              400);
}

TEST(ServeHttp, UnsupportedFramingIsRejectedCleanly)
{
    EXPECT_EQ(parseWire("POST /x HTTP/1.1\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n",
                        1024)
                  .errorStatus,
              501);
    EXPECT_EQ(parseWire("POST /x HTTP/1.1\r\n\r\n", 1024)
                  .errorStatus,
              411);
    std::string huge = "GET / HTTP/1.1\r\n";
    huge.append(kMaxHeaderBytes + 16, 'x');
    EXPECT_EQ(parseWire(huge, 1024).errorStatus, 431);
}

} // namespace
