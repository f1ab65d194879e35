/**
 * @file
 * rrserve — the simulation-as-a-service daemon (docs/SERVE.md).
 *
 * Default mode binds 127.0.0.1 and serves POST /v1/simulate,
 * GET /v1/stats, and GET /healthz until SIGTERM/SIGINT, then drains
 * the admission queue and exits 0. `--hammer` instead runs the
 * built-in load generator against an in-process server and reports
 * p50/p99 latency plus the identity and backpressure checks.
 */

#include <csignal>
#include <cstdio>
#include <iostream>
#include <optional>

#include "cli.hh"
#include "exp/env.hh"
#include "serve/hammer.hh"
#include "serve/server.hh"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

constexpr const char *kUsage =
    "usage: rrserve [options]\n"
    "\n"
    "Serve register-relocation simulations over HTTP/1.1 on the\n"
    "loopback (docs/SERVE.md documents the protocol).\n"
    "\n"
    "daemon options:\n"
    "  --port N           port to bind (default 8377, 0 = ephemeral)\n"
    "  --queue-depth N    admission queue capacity (default 64)\n"
    "  --batch-max N      scheduler batch size (default 32)\n"
    "  --cache-entries N  result-cache entries (default 256, 0 off)\n"
    "  --jobs N           simulation worker threads (0 = auto)\n"
    "  --max-body N       request body cap in bytes (default 1 MiB)\n"
    "\n"
    "load generator:\n"
    "  --hammer           run the built-in load generator and exit\n"
    "  --requests N       hammer request count (default 1024)\n"
    "  --clients N        hammer client threads (default 8)\n"
    "  --specs N          distinct specs to cycle (default 16)\n"
    "  --json             hammer: machine-readable report\n"
    "\n"
    "common:\n"
    "  --quiet            suppress progress output\n"
    "  --help, --version\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace rr;

    tools::OptionParser parser("rrserve", kUsage);
    uint64_t port = 8377;
    uint64_t queue_depth = 64;
    uint64_t batch_max = 32;
    uint64_t cache_entries = 256;
    uint64_t jobs = 0;
    uint64_t max_body = 1u << 20;
    bool hammer = false;
    uint64_t requests = 1024;
    uint64_t clients = 8;
    uint64_t specs = 16;
    bool json = false;
    bool quiet = false;

    parser.number("--port", &port, 0, 65535);
    parser.number("--queue-depth", &queue_depth, 1, 1u << 16);
    parser.number("--batch-max", &batch_max, 1, 1u << 12);
    parser.number("--cache-entries", &cache_entries, 0, 1u << 20);
    parser.number("--jobs", &jobs, 0, 256);
    parser.number("--max-body", &max_body, 1, 1u << 26);
    parser.flag("--hammer", &hammer);
    parser.number("--requests", &requests, 1, 1u << 24);
    parser.number("--clients", &clients, 1, 256);
    parser.number("--specs", &specs, 1, 4096);
    parser.flag("--json", &json);
    parser.flag("--quiet", &quiet);

    const int early = parser.parse(argc, argv);
    if (early >= 0)
        return early;
    if (!parser.positionals().empty()) {
        return parser.fail("unexpected argument '%s'",
                           parser.positionals().front().c_str());
    }

    if (hammer) {
        serve::HammerOptions options;
        options.requests = requests;
        options.clients = static_cast<unsigned>(clients);
        options.specs = static_cast<unsigned>(specs);
        options.cacheEntries = cache_entries;
        options.jobs = static_cast<unsigned>(jobs);
        options.json = json;
        options.quiet = quiet;
        try {
            return serve::runHammer(options, std::cout) == 0
                       ? tools::kExitOk
                       : tools::kExitProblems;
        } catch (const exp::EnvError &error) {
            std::fprintf(stderr, "%s\n", error.what());
            return tools::kExitUsage;
        }
    }

    serve::ServeOptions options;
    options.port = static_cast<uint16_t>(port);
    options.queueDepth = queue_depth;
    options.batchMax = batch_max;
    options.cacheEntries = cache_entries;
    options.jobs = static_cast<unsigned>(jobs);
    options.maxBody = max_body;
    options.stopFlag = &g_stop;

    std::optional<serve::Server> server;
    try {
        server.emplace(options);
    } catch (const exp::EnvError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return tools::kExitUsage;
    }
    if (!server->start()) {
        std::fprintf(stderr, "rrserve: %s\n", server->error().c_str());
        return tools::kExitFailure;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!quiet) {
        std::printf("rrserve: listening on 127.0.0.1:%u\n",
                    static_cast<unsigned>(server->port()));
        std::fflush(stdout);
    }

    server->run(); // returns after the stop signal, fully drained

    if (!quiet)
        std::printf("rrserve: drained, exiting\n");
    return tools::kExitOk;
}
