/**
 * @file
 * The rrserve daemon (docs/SERVE.md): a long-running
 * simulation-as-a-service process over the request broker.
 *
 * Two threads:
 *  - the **acceptor** (run() itself) accepts loopback connections,
 *    reads and parses each request, answers protocol errors and the
 *    observability endpoints immediately, and admits simulation
 *    requests to the bounded queue — or answers 429 when it is
 *    full (admission.hh);
 *  - the **scheduler** drains the queue in batches and hands them
 *    to the broker (cache → coalesce → simulate → audit → respond).
 *
 * Graceful drain: when the stop flag is raised (SIGTERM/SIGINT in
 * rrserve), the acceptor stops taking connections and closes the
 * queue; the scheduler finishes every admitted request before run()
 * returns — an accepted request is never dropped.
 *
 * Endpoints: POST /v1/simulate, GET /v1/stats, GET /healthz.
 */

#ifndef RR_SERVE_SERVER_HH
#define RR_SERVE_SERVER_HH

#include <csignal>
#include <cstdint>
#include <string>

#include "serve/admission.hh"
#include "serve/broker.hh"
#include "serve/http.hh"

namespace rr::serve {

struct ServeOptions
{
    uint16_t port = 8377;          ///< 0 = ephemeral (tests)
    std::size_t queueDepth = 64;   ///< admission queue capacity
    std::size_t batchMax = 32;     ///< scheduler batch size
    std::size_t cacheEntries = 256;
    unsigned jobs = 0;             ///< sim worker threads (0 = env)
    std::size_t maxBody = 1u << 20;

    /**
     * When non-null, raising the flag (e.g. from a signal handler)
     * triggers graceful drain; run() returns once drained.
     */
    const volatile std::sig_atomic_t *stopFlag = nullptr;
};

class Server
{
  public:
    /** @throws exp::EnvError as Broker does, for jobs = 0. */
    explicit Server(const ServeOptions &options);

    /** Bind the listener. @return false with error() on failure. */
    bool start();

    /** The bound port (after start()). */
    uint16_t port() const { return listener_.port(); }

    /**
     * Serve until the stop flag is raised (or stop() is called from
     * another thread), then drain and return.
     */
    void run();

    /** Programmatic stop (the in-process hammer uses this). */
    void stop() { stopped_.store(true); }

    /** The "rr.serve.stats.v1" counters document. */
    std::string statsDocument() const;

    const std::string &error() const { return error_; }

  private:
    /** One admitted request awaiting simulation. */
    struct Pending
    {
        int fd = -1;
        ServeRequest request;
    };

    void handleConnection(int fd);
    void schedulerLoop();

    ServeOptions options_;
    Broker broker_;
    AdmissionQueue<Pending> queue_;
    Listener listener_;
    std::atomic<bool> stopped_{false};
    std::string error_;
};

} // namespace rr::serve

#endif // RR_SERVE_SERVER_HH
