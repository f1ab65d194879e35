/**
 * @file
 * serve_mixed: an in-process rrserve (serve::Server on an ephemeral
 * loopback port) driven in a closed loop over httpPost, each request
 * sent only after the previous reply.
 *
 * A round has two phases. The timed mix is sent by one client, so
 * every latency is that request's own service time: with two clients,
 * a hit queued behind the other client's miss waited out a whole
 * simulation, and how often that happened decided the hit latency
 * more than the serve path did. It sends, each group in seeded order:
 *  - every repeat spec of a small pool, five times each, in varied
 *    spellings (key order, whitespace, number form) that share one
 *    canonical key — cache hits, each checked byte-equal to the cold
 *    body of its key;
 *  - then fresh specs that force simulate + audit — cold misses —
 *    mixed with malformed bodies of the three settled rejection
 *    classes (bad JSON, unknown field, over-limit sweep), each checked
 *    for its documented 400 code.
 * Then kClients clients send each of a few fresh specs at once, so the
 * scheduler can coalesce them; those replies are checked but their
 * latencies, which depend on how the two requests met, are not kept.
 *
 * Main operations are cache hits, auxiliary ones cold misses of the
 * timed mix; work is completed requests.
 */

#include <sched.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "exp/json_in.hh"
#include "exp/json_out.hh"
#include "multithread/mt_processor.hh"
#include "serve/broker.hh"
#include "serve/http.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "trace/audit.hh"
#include "workloads.hh"

namespace perf {

namespace {

using rr::serve::HttpResponse;

/** Clients in the pair phase. */
constexpr unsigned kClients = 2;

/** Simulation workers; they share the server's two CPUs (CpuPin). */
constexpr unsigned kSimJobs = 2;
constexpr unsigned kPoolSpecs = 16;

/** Fresh specs whose bodies feed the digest (reached in any run). */
constexpr uint64_t kDigestFresh = 8;

enum class Kind : uint8_t
{
    Repeat,
    Fresh,
    BadJson,
    UnknownField,
    OverLimit,
};

struct Request
{
    Kind kind = Kind::Repeat;
    std::string body;
};

/** Repeat-pool spec @p i in spelling @p variant (same canonical key). */
std::string
repeatBody(uint64_t seed, unsigned i, unsigned variant)
{
    const std::string family = i % 2 == 0 ? "cache" : "sync";
    const unsigned r = 8 + 4 * i + static_cast<unsigned>(mix(seed, i) % 4);
    const std::string rs = std::to_string(r);
    switch (variant % 3) {
      case 0:
        return "{\"spec\": {\"family\": \"" + family +
               "\", \"runLength\": " + rs +
               ", \"threads\": 8, \"seeds\": 2}}";
      case 1:
        return "{\"spec\":{\"seeds\":2,\"threads\":8,\"runLength\":" + rs +
               ".0,\"family\":\"" + family + "\"}}";
      default:
        return "{ \"spec\" : { \"runLength\" : " + rs +
               "e0 , \"family\" : \"" + family +
               "\" , \"seeds\" : 2 , \"threads\" : 8 } }";
    }
}

/**
 * Fresh spec number @p k: a run length never requested before, spread
 * over [16, 32) by the golden-ratio sequence so the cost of a miss
 * does not drift as k grows. Six threads, where the repeat pool has
 * eight, so no seed can make a fresh spec share a pool spec's key.
 */
std::string
freshBody(uint64_t seed, uint64_t k)
{
    const double phase = static_cast<double>(k) * 0.6180339887498949 +
                         static_cast<double>(seed % 1024) / 1024.0;
    const double r = 16.0 + 16.0 * (phase - std::floor(phase));
    return std::string("{\"spec\": {\"family\": \"") +
           (k % 2 == 0 ? "cache" : "sync") +
           "\", \"runLength\": " + rr::exp::jsonNumber(r) +
           ", \"threads\": 6, \"seeds\": 2}}";
}

Request
badBody(Kind kind, uint64_t k)
{
    switch (kind) {
      case Kind::BadJson:
        return {kind, "{\"spec\": {\"family\": \"cache\", \"runLength\": " +
                          std::to_string(8 + k % 64)};
      case Kind::UnknownField:
        return {kind, "{\"spec\": {\"family\": \"cache\", \"threads\": 8, "
                      "\"colour\": \"blue\"}}"};
      default: {
        std::string list;
        for (unsigned v = 0; v <= rr::serve::kMaxSweepValues; ++v)
            list += (v == 0 ? "" : ", ") + std::to_string(8 + v + k % 8);
        return {kind, "{\"spec\": {\"family\": \"cache\"}, \"sweep\": "
                      "{\"runLengths\": [" +
                          list + "]}}"};
      }
    }
}

const char *
expectedCode(Kind kind)
{
    switch (kind) {
      case Kind::BadJson:
        return "bad-json";
      case Kind::UnknownField:
        return "bad-request";
      case Kind::OverLimit:
        return "limit";
      default:
        return "";
    }
}

std::string
keyOf(const std::string &body)
{
    return rr::serve::canonicalKey(rr::serve::parseRequest(body));
}

/**
 * Confines the calling thread, and every thread it starts while this
 * lives, to the highest @p n CPUs it may run on (away from the low
 * CPUs that usually take interrupts); the old affinity comes back on
 * destruction. A cache hit is a chain of hand-offs between the client,
 * acceptor and scheduler threads. Left free to roam four CPUs, each
 * hand-off could wake an idle CPU, whose cost on a shared host swung
 * the mean hit latency by half from run to run. With the server on two
 * CPUs and the client on one of them, the ten-seed spread of the hit
 * mean fell from 0.58 to 0.04 on the 4-core reference VM.
 */
class CpuPin
{
  public:
    explicit CpuPin(int n)
    {
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        cpu_set_t top;
        CPU_ZERO(&top);
        for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
            if (CPU_ISSET(cpu, &saved_)) {
                CPU_SET(cpu, &top);
                --n;
            }
        }
        live_ = sched_setaffinity(0, sizeof top, &top) == 0;
    }

    ~CpuPin()
    {
        if (live_)
            sched_setaffinity(0, sizeof saved_, &saved_);
    }

    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t saved_{};
    bool live_ = false;
};

/** An in-process server plus the thread running it. */
class ServerThread
{
  public:
    ServerThread() : server_(options())
    {
        if (!server_.start())
            throw std::runtime_error("cannot start server: " +
                                     server_.error());
        thread_ = std::thread([this] { server_.run(); });
    }

    ~ServerThread()
    {
        server_.stop();
        thread_.join();
    }

    ServerThread(const ServerThread &) = delete;
    ServerThread &operator=(const ServerThread &) = delete;

    uint16_t port() const { return server_.port(); }

  private:
    static rr::serve::ServeOptions
    options()
    {
        rr::serve::ServeOptions o;
        o.port = 0;
        o.jobs = kSimJobs;
        return o;
    }

    rr::serve::Server server_;
    std::thread thread_;
};

/** Shared, checked record of every body served per canonical key. */
class Bodies
{
  public:
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bodies_.clear();
    }

    /** First body for @p key is stored; later ones must equal it. */
    bool
    agree(const std::string &key, const std::string &body)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] = bodies_.emplace(key, body);
        return inserted || it->second == body;
    }

  private:
    std::mutex mutex_;
    std::unordered_map<std::string, std::string> bodies_;
};

} // namespace

void
runServeMixed(const Options &opts, Outcome &out)
{
    // The server's threads, and the workers they start, on two CPUs;
    // the clients, from the measured phase on, on one of them.
    std::optional<CpuPin> server_cpus(std::in_place, 2);
    std::optional<CpuPin> client_cpu;
    std::vector<std::string> repeat_keys(kPoolSpecs);
    for (unsigned i = 0; i < kPoolSpecs; ++i)
        repeat_keys[i] = keyOf(repeatBody(opts.seed, i, 0));

    // Set-up: start the server and warm its cache with the repeat
    // pool (cold misses, then one checked hit each). Repeated on fresh
    // servers; the median is reported and the last server is used.
    std::unique_ptr<ServerThread> server;
    auto bodies = std::make_unique<Bodies>();
    for (int s = 0; s < kSetups; ++s) {
        server.reset();
        bodies = std::make_unique<Bodies>();
        const double t0 = nowSeconds();
        server = std::make_unique<ServerThread>();
        for (unsigned i = 0; i < kPoolSpecs; ++i) {
            const HttpResponse cold = rr::serve::httpPost(
                server->port(), "/v1/simulate",
                repeatBody(opts.seed, i, 0));
            const HttpResponse hot = rr::serve::httpPost(
                server->port(), "/v1/simulate",
                repeatBody(opts.seed, i, 1));
            out.check(cold.status == 200 &&
                          cold.header("X-Cache") == "miss" &&
                          hot.status == 200 &&
                          hot.header("X-Cache") == "hit" &&
                          bodies->agree(repeat_keys[i], cold.body) &&
                          bodies->agree(repeat_keys[i], hot.body),
                      "warm-up of repeat spec " + std::to_string(i));
        }
        out.setups.push_back(nowSeconds() - t0);
    }
    const uint16_t port = server->port();
    client_cpu.emplace(1);

    Digest digest;
    for (const std::string &key : repeat_keys)
        digest.text(key);

    // Per round: the timed mix, then the pair phase.
    const unsigned hit_reps = opts.quick ? 1 : 5;
    const unsigned fresh_per_round = opts.quick ? 2 : 8;
    const unsigned bad_reps = opts.quick ? 1 : 2;
    const unsigned pairs_per_round = opts.quick ? 1 : 3;

    Bodies fresh_bodies; // this round's fresh specs
    std::mutex out_mutex; // guards out, digest_bodies, corrupt_pending
    std::vector<double> bad_us;
    std::map<uint64_t, std::string> digest_bodies;
    uint64_t next_fresh = 0;
    double per_round = 0.0; // requests per round
    bool corrupt_pending = opts.corrupt;

    // Send one request and check its reply. In the timed mix
    // (@p expect_cache set) a repeat must hit and a fresh spec miss;
    // a paired fresh spec may do either. Returns the latency in us.
    const auto send = [&](const Request &req, uint64_t fresh_id,
                          bool expect_cache) {
        const uint64_t op = newOp();
        double us = 0.0;
        HttpResponse reply;
        {
            ScopedSpan span("serve.http", op);
            const double t0 = nowSeconds();
            reply = rr::serve::httpPost(port, "/v1/simulate", req.body);
            us = (nowSeconds() - t0) * 1e6;
        }

        bool ok = reply.status != 0 && reply.status < 500;
        std::string what = "transport error or 5xx";
        std::string body = reply.body;
        if (ok && (req.kind == Kind::Repeat || req.kind == Kind::Fresh)) {
            const std::string cache = reply.header("X-Cache");
            {
                std::lock_guard<std::mutex> lock(out_mutex);
                if (corrupt_pending && cache == "hit") {
                    body += " ";
                    corrupt_pending = false;
                }
            }
            const std::string want = !expect_cache ? ""
                                     : req.kind == Kind::Repeat ? "hit"
                                                                : "miss";
            ok = reply.status == 200 &&
                 (want.empty() ? cache == "hit" || cache == "miss"
                               : cache == want) &&
                 (req.kind == Kind::Repeat ? *bodies : fresh_bodies)
                     .agree(keyOf(req.body), body);
            what = "simulate reply (status " +
                   std::to_string(reply.status) + ", X-Cache '" + cache +
                   "') is not the cold body of its key";
        } else if (ok) {
            const auto doc = rr::exp::parseJson(reply.body);
            ok = reply.status == 400 && doc &&
                 doc->stringOr("code", "") == expectedCode(req.kind);
            what = std::string("malformed body not rejected as ") +
                   expectedCode(req.kind);
        }

        std::lock_guard<std::mutex> lock(out_mutex);
        out.check(ok, what);
        if (req.kind == Kind::Fresh && fresh_id < kDigestFresh)
            digest_bodies[fresh_id] = reply.body;
        return us;
    };

    measureRounds(opts, out, 3, [&](unsigned round, bool) {
        // A fresh spec's key is done with by the end of its round, so
        // memory does not grow with the number of rounds run.
        fresh_bodies.clear();

        // Timed mix: a fixed composition per round, in seeded order,
        // so the mix never drifts between seeds or rounds.
        rr::Rng rng(mix(opts.seed, 1000 + round));
        std::vector<std::pair<Request, uint64_t>> plan;
        for (unsigned i = 0; i < kPoolSpecs; ++i) {
            for (unsigned v = 0; v < hit_reps; ++v)
                plan.push_back({{Kind::Repeat,
                                 repeatBody(opts.seed, i,
                                            i + v + round)},
                                0});
        }
        for (unsigned f = 0; f < fresh_per_round; ++f) {
            const uint64_t id = next_fresh++;
            plan.push_back({{Kind::Fresh, freshBody(opts.seed, id)}, id});
        }
        for (unsigned b = 0; b < bad_reps; ++b) {
            for (const Kind kind :
                 {Kind::BadJson, Kind::UnknownField, Kind::OverLimit})
                plan.push_back({badBody(kind, rng.next()), 0});
        }
        for (std::size_t k = plan.size() - 1; k > 0; --k)
            std::swap(plan[k], plan[rng.nextRange(0, k)]);
        // Hits first: a hit right after a miss runs on caches the
        // simulation flushed, and with such hits near 10% of all, the
        // hit p90 fell on their edge and jumped from run to run.
        std::stable_partition(plan.begin(), plan.end(), [](const auto &p) {
            return p.first.kind == Kind::Repeat;
        });

        for (const auto &[req, id] : plan) {
            const double us = send(req, id, true);
            if (req.kind == Kind::Repeat)
                out.mainUs.push_back(us);
            else if (req.kind == Kind::Fresh)
                out.auxUs.push_back(us);
            else
                bad_us.push_back(us);
        }

        // Pair phase: every client sends the same fresh spec at once.
        std::vector<std::pair<Request, uint64_t>> pairs;
        for (unsigned p = 0; p < pairs_per_round; ++p) {
            const uint64_t id = next_fresh++;
            pairs.push_back({{Kind::Fresh, freshBody(opts.seed, id)}, id});
        }
        std::barrier<> pair_sync(kClients);
        const auto client = [&] {
            for (const auto &[req, id] : pairs) {
                pair_sync.arrive_and_wait();
                send(req, id, false);
            }
        };
        std::vector<std::thread> others;
        for (unsigned c = 1; c < kClients; ++c)
            others.emplace_back(client);
        client();
        for (std::thread &t : others)
            t.join();

        per_round = static_cast<double>(plan.size() +
                                        pairs.size() * kClients);
    });
    for (const double w : out.roundWall)
        out.rates.push_back(per_round / w);

    // Simulated output: the repeat pool's bodies and the first fresh
    // specs' bodies (fixed by the seed, whatever the interleaving).
    for (unsigned i = 0; i < kPoolSpecs; ++i) {
        const HttpResponse r = rr::serve::httpPost(
            port, "/v1/simulate", repeatBody(opts.seed, i, 2));
        digest.text(r.body);
    }
    for (const auto &[id, body] : digest_bodies)
        digest.text(body);
    out.digest = digest.hex();

    const HttpResponse stats_reply = rr::serve::httpGet(port, "/v1/stats");
    const auto stats = rr::exp::parseJson(stats_reply.body);
    const rr::exp::JsonValue *cache =
        stats ? stats->find("cache") : nullptr;
    const rr::exp::JsonValue *broker =
        stats ? stats->find("broker") : nullptr;
    const rr::exp::JsonValue *admission =
        stats ? stats->find("admission") : nullptr;
    out.check(cache && broker && admission &&
                  broker->numberOr("auditViolations", 1) == 0,
              "/v1/stats missing or reports audit violations");
    server.reset();
    client_cpu.reset();
    server_cpus.reset();

    if (!opts.trace || !cache || !broker || !admission)
        return;
    auto &m = out.layers;
    const double hits = cache->numberOr("hits", 0);
    const double misses = cache->numberOr("misses", 0);
    const double total = broker->numberOr("unitsTotal", 0);
    const double unique = broker->numberOr("unitsUnique", 0);
    m["serve.cache_hits"] = hits;
    m["serve.cache_misses"] = misses;
    m["serve.hit_ratio"] = hits / (hits + misses);
    m["serve.units_total"] = total;
    m["serve.units_unique"] = unique;
    m["serve.coalesce_ratio"] = total > 0 ? 1.0 - unique / total : 0.0;
    m["serve.batches"] = broker->numberOr("batches", 0);
    m["serve.rejected_429"] = admission->numberOr("rejected", 0);
    m["serve.bad_p50_us"] = percentile(bad_us, 50);

    // Protocol stages, timed from outside on this workload's bodies.
    std::vector<std::string> sample;
    for (unsigned i = 0; i < kPoolSpecs; ++i)
        sample.push_back(repeatBody(opts.seed, i, i));
    constexpr unsigned kIters = 200;
    double parse_s = 0.0, key_s = 0.0;
    for (unsigned it = 0; it < kIters; ++it) {
        for (const std::string &body : sample) {
            double t0 = nowSeconds();
            const rr::serve::ServeRequest req =
                rr::serve::parseRequest(body);
            parse_s += nowSeconds() - t0;
            t0 = nowSeconds();
            const std::string key = rr::serve::canonicalKey(req);
            key_s += nowSeconds() - t0;
        }
    }
    const double calls = kIters * sample.size();
    m["serve.parse_us"] = parse_s / calls * 1e6;
    m["serve.key_us"] = key_s / calls * 1e6;

    // The broker driven directly: one cold miss, then its hit; and
    // the same units simulated with and without the auditor.
    rr::serve::Broker direct(256, kSimJobs);
    std::vector<double> hit_us, miss_us;
    double null_s = 0.0, audit_s = 0.0, build_s = 0.0;
    uint64_t trace_events = 0, problems = 0, sims = 0, events = 0;
    std::size_t heap_max = 0;
    uint64_t compactions = 0;
    rr::mt::MtStats sums;
    for (unsigned k = 0; k < 8; ++k) {
        const rr::serve::ServeRequest req = rr::serve::parseRequest(
            freshBody(opts.seed, (uint64_t{1} << 40) + k));
        double t0 = nowSeconds();
        direct.serveBatch({req});
        miss_us.push_back((nowSeconds() - t0) * 1e6);
        t0 = nowSeconds();
        direct.serveBatch({req});
        hit_us.push_back((nowSeconds() - t0) * 1e6);

        for (const rr::serve::SimUnit &unit : rr::serve::expandUnits(req)) {
            t0 = nowSeconds();
            rr::mt::MtConfig config = rr::serve::makeSpec(unit).build();
            build_s += nowSeconds() - t0;
            t0 = nowSeconds();
            rr::mt::MtProcessor processor(config);
            const rr::mt::MtStats s = processor.run();
            null_s += nowSeconds() - t0;
            heap_max = std::max(heap_max, processor.completionCore().maxSize());
            compactions += processor.completionCore().compactions();
            events += eventCount(s);
            sums.allocSuccesses += s.allocSuccesses;
            sums.allocFailures += s.allocFailures;
            sums.loads += s.loads;
            sums.unloads += s.unloads;
            ++sims;

            rr::trace::TraceAuditor auditor(config.costs);
            config.traceSink = &auditor;
            t0 = nowSeconds();
            const rr::mt::MtStats audited = rr::mt::simulate(config);
            audit_s += nowSeconds() - t0;
            problems +=
                auditor.reconcile(rr::mt::auditTotals(audited)).size();
            trace_events += auditor.eventsSeen();
        }
    }
    m["serve.broker_hit_us"] = median(hit_us);
    m["serve.broker_miss_us"] = median(miss_us);
    m["serve.http_us"] = percentile(out.mainUs, 50) - median(hit_us);
    m["trace.events"] = static_cast<double>(trace_events);
    m["trace.audit_overhead"] = audit_s / null_s - 1.0;
    m["trace.audit_problems"] = static_cast<double>(problems);
    m["multithread.sims"] = static_cast<double>(sims);
    m["multithread.build_s"] = build_s;
    m["multithread.run_s"] = null_s;
    m["multithread.events"] = static_cast<double>(events);
    m["multithread.events_per_s"] = events / null_s;
    m["multithread.heap_max"] = static_cast<double>(heap_max);
    m["multithread.compactions"] = static_cast<double>(compactions);
    m["runtime.alloc_successes"] = static_cast<double>(sums.allocSuccesses);
    m["runtime.alloc_failures"] = static_cast<double>(sums.allocFailures);
    m["runtime.loads"] = static_cast<double>(sums.loads);
    m["runtime.unloads"] = static_cast<double>(sums.unloads);
}

} // namespace perf
