// analyzed — the bound-serving daemon (docs/SERVING.md).
//
//   analyzed                           # serve the newline protocol on
//                                      # stdin/stdout; exits 0 on quit/EOF
//   analyzed --listen PORT             # serve TCP connections on
//                                      # 127.0.0.1:PORT, one at a time,
//                                      # until the process is killed
//   analyzed --once --listen PORT      # serve exactly one connection
//   analyzed --threads N               # max requests in flight (default 4)
//   analyzed --analysis-threads N      # subgraph-shard workers per
//                                      # analysis (default 1; 0 = all
//                                      # hardware threads)
//   analyzed --cache-entries N         # bound-cache capacity (default
//                                      # 4096 entries)
//   analyzed --cache-nodes N           # live interned-node budget for the
//                                      # cache (0 = unlimited)
//   analyzed --cache-file PATH         # append-only persistence: loaded at
//                                      # startup, appended on every store,
//                                      # so restarts begin warm
//   analyzed --timeout-ms N            # default per-request deadline
//                                      # (overridable per request)
//   analyzed --node-budget N           # default per-request live-node
//                                      # budget (overridable per request)
//
// The protocol and reply shapes are documented in docs/SERVING.md and
// src/service/server.hpp.  Results are bit-identical to analyze_tool with
// the same options — the cache serves the exact interned bound the
// derivation produced.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <streambuf>
#include <string>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/server.hpp"
#include "support/cancel.hpp"
#include "support/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen PORT [--once]] [--threads N] "
               "[--analysis-threads N]\n"
               "       [--cache-entries N] [--cache-nodes N] "
               "[--cache-file PATH]\n"
               "       [--timeout-ms N] [--node-budget N]\n"
               "  serves the analyze/kernel/stats/cancel/quit protocol "
               "(docs/SERVING.md)\n"
               "  on stdin/stdout, or on 127.0.0.1:PORT with --listen\n",
               argv0);
  return soap::support::status_exit_code(
      soap::support::StatusCode::kInvalidInput);
}

/// Minimal bidirectional streambuf over a connected socket fd, so the
/// server's istream/ostream loop works unchanged under --listen.
class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(rbuf_, rbuf_, rbuf_);
    setp(wbuf_, wbuf_ + sizeof(wbuf_));
  }
  ~FdStreamBuf() override { sync(); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const ssize_t n = ::read(fd_, rbuf_, sizeof(rbuf_));
    if (n <= 0) return traits_type::eof();
    setg(rbuf_, rbuf_, rbuf_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type c) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n <= 0) return -1;
      p += n;
    }
    setp(wbuf_, wbuf_ + sizeof(wbuf_));
    return 0;
  }

 private:
  int fd_;
  char rbuf_[4096];
  char wbuf_[4096];
};

int serve_listen(soap::service::Server& server, std::size_t port, bool once) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  const int reuse = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 4) < 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "analyzed: listening on 127.0.0.1:%zu\n", port);
  int rc = 0;
  for (;;) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      std::perror("accept");
      rc = 1;
      break;
    }
    {
      // Cache (and its stats) persist across connections — that is the
      // point of the daemon.
      FdStreamBuf buf(conn);
      std::istream in(&buf);
      std::ostream out(&buf);
      rc = server.serve(in, out);
    }
    ::close(conn);
    if (once) break;
  }
  ::close(listener);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soap;
  service::ServerOptions options;
  std::size_t listen_port = 0;
  bool once = false;
  std::size_t cache_entries = 4096;
  std::size_t cache_nodes = 0;
  std::string cache_file;
  struct SizeFlag {
    const char* name;
    std::size_t* out;
  };
  const SizeFlag size_flags[] = {
      {"listen", &listen_port},
      {"threads", &options.request_threads},
      {"analysis-threads", &options.analysis_threads},
      {"cache-entries", &cache_entries},
      {"cache-nodes", &cache_nodes},
      {"timeout-ms", &options.default_timeout_ms},
      {"node-budget", &options.default_node_budget},
  };
  std::string flag_error;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
      continue;
    }
    switch (support::consume_string_flag(argc, argv, i, "cache-file",
                                         cache_file, &flag_error)) {
      case support::FlagParse::kOk:
        continue;
      case support::FlagParse::kBadValue:
        std::fprintf(stderr, "invalid value for --cache-file: %s\n",
                     flag_error.c_str());
        return usage(argv[0]);
      case support::FlagParse::kNoMatch:
        break;
    }
    bool matched = false;
    for (const SizeFlag& flag : size_flags) {
      switch (support::consume_size_flag(argc, argv, i, flag.name, *flag.out,
                                         &flag_error)) {
        case support::FlagParse::kOk:
          matched = true;
          break;
        case support::FlagParse::kBadValue:
          std::fprintf(stderr, "invalid value for --%s: %s\n", flag.name,
                       flag_error.c_str());
          return usage(argv[0]);
        case support::FlagParse::kNoMatch:
          break;
      }
      if (matched) break;
    }
    if (matched) continue;
    std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
    return usage(argv[0]);
  }
  if (once && listen_port == 0) {
    std::fprintf(stderr, "--once requires --listen PORT\n");
    return usage(argv[0]);
  }
  if (listen_port > 65535) {
    std::fprintf(stderr, "--listen port %zu is out of range (1-65535)\n",
                 listen_port);
    return usage(argv[0]);
  }
  options.cache.max_entries = cache_entries;
  options.cache.max_live_nodes = cache_nodes;
  options.cache.persist_path = cache_file;

  service::Server server(options);
  if (listen_port != 0) return serve_listen(server, listen_port, once);
  return server.serve(std::cin, std::cout);
}
