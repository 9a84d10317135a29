// vafsd — the VAFS decision daemon.
//
//   vafsd --socket /tmp/vafs.sock [--max-connections N]
//
// Serves decision streams until SIGTERM/SIGINT, then drains in-flight
// requests, prints a JSON stats summary to stdout, and exits 0. Exits 1
// if the socket cannot be bound, 2 on a usage error (an unknown flag, no
// --socket, or a --max-connections that is not a whole integer >= 1).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "serve/server.h"
#include "simcore/parse.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  vafs::serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      options.socket_path = argv[++i];
    } else if (arg == "--max-connections" && i + 1 < argc) {
      // Parsed whole and >= 1: a limit of 0 would announce readiness and
      // then refuse every client.
      std::uint64_t n = 0;
      if (!vafs::sim::parse_u64(argv[++i], &n) || n < 1) {
        std::fprintf(stderr, "vafsd: --max-connections must be an integer >= 1, got '%s'\n",
                     argv[i]);
        return 2;
      }
      options.max_connections = n;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: vafsd --socket PATH [--max-connections N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "vafsd: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "vafsd: --socket PATH is required\n");
    return 2;
  }

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);  // peer death surfaces as write() errors

  vafs::serve::Server server(options);
  if (!server.start()) {
    std::fprintf(stderr, "vafsd: failed to bind %s: %s\n", options.socket_path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  // Readiness line: clients wait for this before connecting.
  std::printf("vafsd: listening on %s\n", options.socket_path.c_str());
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();  // drains in-flight requests

  const vafs::serve::ServerStats s = server.stats();
  std::printf(
      "{\"connections_accepted\": %llu, \"connections_rejected\": %llu, "
      "\"streams_opened\": %llu, \"requests\": %llu, \"protocol_errors\": %llu, "
      "\"latency_p50_us\": %.3f, \"latency_p95_us\": %.3f, \"latency_p99_us\": %.3f}\n",
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.connections_rejected),
      static_cast<unsigned long long>(s.streams_opened),
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.protocol_errors), s.latency_p50_us, s.latency_p95_us,
      s.latency_p99_us);
  return 0;
}
