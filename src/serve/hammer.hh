/**
 * @file
 * The built-in load generator behind `rrserve --hammer`
 * (docs/SERVE.md): an in-process proof of the daemon's three
 * contracts, with a latency report.
 *
 * The hammer starts a real Server on an ephemeral loopback port and
 * drives it through the client half of the HTTP layer:
 *
 *  1. **identity** — the same request served cold and then hot must
 *     be a miss then a hit, with byte-identical rr.bench.v1 bodies;
 *  2. **throughput** — N client threads issue the configured number
 *     of requests over a small spec set (so the cache and the
 *     coalescer both engage) and per-request latency is collected
 *     into a p50/p99 report;
 *  3. **backpressure** — a deliberately tiny queue (depth 2, batch 1,
 *     cache off) is flooded with concurrent unique requests; some
 *     must be answered 429 and every response must still be clean.
 *
 * Exit code 0 means every check passed ("hammer: PASS" on the last
 * line — the serve_smoke ctest keys on it).
 */

#ifndef RR_SERVE_HAMMER_HH
#define RR_SERVE_HAMMER_HH

#include <cstdint>
#include <iosfwd>

namespace rr::serve {

struct HammerOptions
{
    uint64_t requests = 1024; ///< throughput-phase request count
    unsigned clients = 8;     ///< concurrent client threads
    unsigned specs = 16;      ///< distinct specs cycled through
    std::size_t cacheEntries = 256;
    unsigned jobs = 0;
    bool json = false; ///< emit an rr.serve.hammer.v1 document
    bool quiet = false;
};

/**
 * Run the load generator against an in-process server.
 * @return 0 when every phase passed, 1 otherwise.
 * @throws exp::EnvError as Server does, for jobs = 0.
 */
int runHammer(const HammerOptions &options, std::ostream &out);

} // namespace rr::serve

#endif // RR_SERVE_HAMMER_HH
