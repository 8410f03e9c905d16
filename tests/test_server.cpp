// The `analyzed` protocol (docs/SERVING.md) driven in-process through
// service::Server::serve over string streams: pinned reply bytes (with the
// timing field stripped), cache hit/miss progression, the no-bound note,
// the body and line size caps, EOF and unknown-command errors, duplicate
// in-flight ids, cache hits answered by the reader thread, stats
// accounting, and a concurrent request mix with a
// cancel (the suite is labeled `parallel`, so the TSan job runs it).  Also the
// fixed-memory latency histogram behind `stats` p50/p99.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "service/server.hpp"
#include "support/executor.hpp"
#include "support/thread_pool.hpp"

namespace soap {
namespace {

using service::LatencyHistogram;
using service::Server;
using service::ServerOptions;

constexpr const char* kGemmBody =
    "for i in range(N):\n"
    "  for j in range(N):\n"
    "    for k in range(N):\n"
    "      C[i,j] += A[i,k] * B[k,j]\n";

/// Splits `out` into reply lines with the `elapsed_us` field removed.
std::vector<std::string> reply_lines(const std::string& out) {
  const std::string elapsed = ",\"elapsed_us\":";
  std::vector<std::string> lines;
  std::istringstream ss(out);
  std::string line;
  while (std::getline(ss, line)) {
    const std::size_t at = line.find(elapsed);
    if (at != std::string::npos) {
      const std::size_t end =
          line.find_first_not_of("0123456789", at + elapsed.size());
      line.erase(at, end - at);
    }
    lines.push_back(line);
  }
  return lines;
}

/// Serves `input` to completion on `server`; returns the reply lines.
std::vector<std::string> serve(Server& server, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(server.serve(in, out), 0);
  return reply_lines(out.str());
}

ServerOptions serial_options() {
  ServerOptions options;
  options.request_threads = 1;
  return options;
}

/// The unsigned value of `"key":N` in a reply line.
std::uint64_t field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + tag.size()));
}

TEST(ServerProtocol, AnalyzeReplyIsPinned) {
  Server server(serial_options());
  const auto replies = serve(
      server, std::string("analyze id=p1\n") + kGemmBody + "end\nquit\n");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0],
            "{\"id\":\"p1\",\"digest\":\"6913e5d364281057de746dbde9f11767\","
            "\"cache\":\"miss\",\"status\":\"ok\",\"bound\":\"2*N^3/sqrt(S)\","
            "\"q_sdg\":\"2*N^3/sqrt(S)\",\"q_cold\":\"3*N^2\","
            "\"degraded\":false,\"subgraphs\":1,\"per_array\":[{\"array\":"
            "\"C\",\"cdag_size\":\"N^3\",\"rho\":\"sqrt(S)/2\","
            "\"rho_value\":512}]}");
}

TEST(ServerProtocol, KernelGoesFromMissToHit) {
  Server server(serial_options());
  const auto replies =
      serve(server, "kernel gemm id=k1\nkernel gemm id=k2\n");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0],
            "{\"id\":\"k1\",\"cache\":\"miss\",\"family\":\"polybench\","
            "\"kernel\":\"gemm\",\"status\":\"ok\",\"degraded\":false,"
            "\"bound\":\"2*N^3/sqrt(S)\"}");
  EXPECT_EQ(replies[1],
            "{\"id\":\"k2\",\"cache\":\"hit\",\"family\":\"polybench\","
            "\"kernel\":\"gemm\",\"status\":\"ok\",\"degraded\":false,"
            "\"bound\":\"2*N^3/sqrt(S)\"}");
}

TEST(ServerProtocol, ProgramWithoutBoundRepliesNullWithNote) {
  Server server(serial_options());
  const auto replies = serve(server, "analyze id=e\nend\n");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0],
            "{\"id\":\"e\",\"digest\":\"b7fa171e136e692e224b1a3ae5d3fc9c\","
            "\"cache\":\"miss\",\"status\":\"ok\",\"bound\":null,"
            "\"note\":\"no non-trivial bound (unlimited reuse)\"}");
}

TEST(ServerProtocol, OversizedBodyIsRejectedAndTheStreamStaysInSync) {
  Server server(serial_options());
  std::string input = "analyze id=big\n";
  const std::string pad = "# a comment line that pads the body out\n";
  while (input.size() < (std::size_t{1} << 20) + pad.size()) input += pad;
  input += "end\nkernel gemm id=after\n";
  const auto replies = serve(server, input);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0],
            "{\"id\":\"big\",\"status\":\"invalid_input\",\"error\":"
            "\"analyze body exceeds 1048576 bytes\"}");
  EXPECT_EQ(replies[1].rfind("{\"id\":\"after\",\"cache\":\"miss\"", 0), 0u)
      << replies[1];
  EXPECT_NE(replies[1].find("\"status\":\"ok\""), std::string::npos);
}

TEST(ServerProtocol, EofBeforeEndIsAnErrorAndEndsTheSession) {
  Server server(serial_options());
  const auto replies = serve(
      server, "analyze id=x\nfor i in range(N):\nkernel gemm id=unread\n");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0],
            "{\"id\":\"x\",\"status\":\"invalid_input\",\"error\":"
            "\"EOF before `end` terminator\"}");
}

TEST(ServerProtocol, UnknownCommandIsRejected) {
  Server server(serial_options());
  const auto replies = serve(server, "bogus 1 2\nquit\nkernel gemm\n");
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0],
            "{\"id\":\"\",\"status\":\"invalid_input\",\"error\":"
            "\"unknown command 'bogus'\"}");
}

TEST(ServerProtocol, OverlongLinesGetShortRepliesAndTheStreamStaysInSync) {
  Server server(serial_options());
  // A 2 MiB command line is dropped unbuffered; a 512 KiB one is buffered
  // but its echo is clipped.  Both replies stay small and the next request
  // is still served.
  const std::string input = std::string(std::size_t{2} << 20, 'x') + "\n" +
                            std::string(std::size_t{512} << 10, 'y') +
                            " 1\nkernel gemm id=after\n";
  const auto replies = serve(server, input);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_LT(replies[0].size(), 1024u);
  EXPECT_EQ(replies[0],
            "{\"id\":\"\",\"status\":\"invalid_input\",\"error\":"
            "\"request line exceeds 1048576 bytes\"}");
  EXPECT_LT(replies[1].size(), 1024u);
  EXPECT_EQ(replies[1],
            "{\"id\":\"\",\"status\":\"invalid_input\",\"error\":"
            "\"unknown command '" +
                std::string(64, 'y') + "...'\"}");
  EXPECT_EQ(replies[2].rfind("{\"id\":\"after\",\"cache\":\"miss\"", 0), 0u)
      << replies[2].substr(0, 200);
  EXPECT_NE(replies[2].find("\"status\":\"ok\""), std::string::npos);
}

/// Holds every submitted task until the input runs dry, then runs them on
/// the reader thread: requests stay in flight while later lines are read.
class HoldingExecutor final : public support::Executor {
 public:
  void submit(std::function<void()> task) override {
    held_.push_back(std::move(task));
  }
  [[nodiscard]] std::size_t concurrency() const override { return 1; }
  void release() {
    std::vector<std::function<void()>> tasks = std::move(held_);
    held_.clear();
    for (auto& task : tasks) task();
  }
  [[nodiscard]] std::size_t held() const { return held_.size(); }

 private:
  std::vector<std::function<void()>> held_;
};

/// An input buffer that calls `at_eof` once, when the reader asks for more
/// than `data` holds — after every line has been read and handled.
class CallbackAtEof final : public std::streambuf {
 public:
  CallbackAtEof(std::string data, std::function<void()> at_eof)
      : data_(std::move(data)), at_eof_(std::move(at_eof)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override {
    if (at_eof_) std::exchange(at_eof_, nullptr)();
    return traits_type::eof();
  }

 private:
  std::string data_;
  std::function<void()> at_eof_;
};

TEST(ServerProtocol, DuplicateInFlightIdIsRejected) {
  HoldingExecutor executor;
  ServerOptions options;
  options.request_threads = 2;
  options.executor = executor;
  Server server(options);
  std::size_t held_at_eof = 0;
  CallbackAtEof buffer("kernel gemm id=a\nkernel atax id=a\n", [&] {
    held_at_eof = executor.held();
    executor.release();
  });
  std::istream in(&buffer);
  std::ostringstream out;
  EXPECT_EQ(server.serve(in, out), 0);
  EXPECT_EQ(held_at_eof, 1u);
  const auto replies = reply_lines(out.str());
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0],
            "{\"id\":\"a\",\"status\":\"invalid_input\",\"error\":"
            "\"duplicate in-flight id 'a'\"}");
  EXPECT_EQ(replies[1].rfind("{\"id\":\"a\",\"cache\":\"miss\","
                             "\"family\":\"polybench\",\"kernel\":\"gemm\"",
                             0),
            0u)
      << replies[1];
}

TEST(ServerProtocol, ReaderAnswersCachedRequestsWithTheWorkersBytes) {
  HoldingExecutor executor;
  ServerOptions options;
  options.request_threads = 2;
  options.executor = executor;
  Server server(options);
  const auto serve_held = [&](const std::string& input, std::size_t* held) {
    CallbackAtEof buffer(input, [&] {
      *held = executor.held();
      executor.release();
    });
    std::istream in(&buffer);
    std::ostringstream out;
    EXPECT_EQ(server.serve(in, out), 0);
    return reply_lines(out.str());
  };
  const std::string program =
      std::string("max-subgraph-size=2\n") + kGemmBody + "end\n";
  std::size_t held = 0;
  const auto cold = serve_held(
      "kernel gemm id=k1\nanalyze id=p1 " + program, &held);
  EXPECT_EQ(held, 2u);
  ASSERT_EQ(cold.size(), 2u);
  // The repeats never reach the executor; the cached id `d` is still a
  // duplicate of the in-flight atax request.
  const auto warm = serve_held(
      "kernel atax id=d\nkernel gemm id=d\nkernel gemm id=k2\n"
      "analyze id=p2 " + program,
      &held);
  EXPECT_EQ(held, 1u);
  ASSERT_EQ(warm.size(), 4u);
  EXPECT_EQ(warm[0],
            "{\"id\":\"d\",\"status\":\"invalid_input\",\"error\":"
            "\"duplicate in-flight id 'd'\"}");
  const auto as_hit = [](std::string line, const std::string& from,
                         const std::string& to) {
    line.replace(line.find(from), from.size(), to);
    line.replace(line.find("\"cache\":\"miss\""), 14, "\"cache\":\"hit\"");
    return line;
  };
  EXPECT_EQ(warm[1], as_hit(cold[0], "\"k1\"", "\"k2\""));
  EXPECT_EQ(warm[2], as_hit(cold[1], "\"p1\"", "\"p2\""));
  EXPECT_EQ(warm[3].rfind("{\"id\":\"d\",\"cache\":\"miss\","
                          "\"family\":\"polybench\",\"kernel\":\"atax\"",
                          0),
            0u)
      << warm[3];
  const auto stats = serve(server, "stats id=s\n");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(field(stats[0], "hits"), 2u);
  EXPECT_EQ(field(stats[0], "misses"), 3u);
}

TEST(ServerProtocol, AnEvictedEntryIsDerivedAgain) {
  ServerOptions options = serial_options();
  options.cache.max_entries = 1;
  Server server(options);
  const auto replies = serve(
      server, "kernel gemm id=a\nkernel gemm id=b\nkernel atax id=c\n"
              "kernel gemm id=d\nstats id=s\n");
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_NE(replies[1].find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(replies[3].find("\"cache\":\"miss\""), std::string::npos)
      << replies[3];
  EXPECT_EQ(field(replies[4], "hits"), 1u);
  EXPECT_EQ(field(replies[4], "misses"), 3u);
  EXPECT_EQ(field(replies[4], "evicted"), 2u);
}

TEST(ServerProtocol, StatsCountersAddUp) {
  Server server(serial_options());
  const auto replies = serve(server, std::string("kernel gemm\nkernel gemm\n"
                                                 "kernel atax\nanalyze\n") +
                                         kGemmBody + "end\nstats id=s\n");
  ASSERT_EQ(replies.size(), 5u);
  const std::string& stats = replies[4];
  EXPECT_EQ(stats.rfind("{\"id\":\"s\",", 0), 0u) << stats;
  EXPECT_EQ(field(stats, "requests"), 4u);
  EXPECT_EQ(field(stats, "hits"), 2u);  // the repeat and the DSL gemm
  EXPECT_EQ(field(stats, "misses"), 2u);
  EXPECT_EQ(field(stats, "coalesced"), 0u);
  EXPECT_EQ(field(stats, "requests"), field(stats, "hits") +
                                          field(stats, "misses") +
                                          field(stats, "coalesced"));
  EXPECT_EQ(field(stats, "entries"), 2u);
  EXPECT_NE(stats.find("\"hit_rate\":0.5,"), std::string::npos) << stats;
  EXPECT_LE(field(stats, "p50_us"), field(stats, "p99_us"));
  EXPECT_GT(field(stats, "p99_us"), 0u);
}

TEST(ServerProtocol, ConcurrentRequestsGetOneReplyEach) {
  support::ThreadPool pool(4);
  ServerOptions options;
  options.request_threads = 4;
  options.executor = pool;
  Server server(options);
  const char* const kernels[] = {"gemm", "atax", "mvt", "bicg"};
  std::string input;
  std::map<std::string, int> expected;  // request id -> replies seen
  for (int i = 0; i < 16; ++i) {
    const std::string id = "c" + std::to_string(i);
    input += "kernel " + std::string(kernels[i % 4]) + " id=" + id + "\n";
    expected[id] = 0;
    // The cancelled request is the only one of its kernel, so no other
    // request can coalesce onto its derivation and inherit the cancel.
    if (i == 5) input += "kernel bert_encoder id=slow\ncancel slow\n";
  }
  expected["slow"] = 0;
  input += "stats id=s\n";
  expected["s"] = 0;
  const auto replies = serve(server, input);
  int cancels = 0;
  for (const std::string& line : replies) {
    if (line.rfind("{\"cancel\":\"slow\",\"delivered\":", 0) == 0) {
      ++cancels;
      continue;
    }
    ASSERT_EQ(line.rfind("{\"id\":\"", 0), 0u) << line;
    const std::string id = line.substr(7, line.find('"', 7) - 7);
    ASSERT_EQ(expected.count(id), 1u) << line;
    ++expected[id];
    if (id != "slow" && id != "s") {
      EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
    }
  }
  EXPECT_EQ(cancels, 1);
  for (const auto& [id, seen] : expected) EXPECT_EQ(seen, 1) << id;
  EXPECT_EQ(replies.size(), expected.size() + 1);
  // `stats` is answered last: it drains every request admitted before it.
  EXPECT_EQ(replies.back().rfind("{\"id\":\"s\",", 0), 0u);
  EXPECT_EQ(field(replies.back(), "requests"), 17u);
}

// --- Latency histogram ------------------------------------------------------

TEST(LatencyHistogram, EmptyReportsZero) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.percentile(50), 0u);
  EXPECT_EQ(histogram.percentile(99), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram histogram;
  for (std::uint64_t us = 0; us < 16; ++us) histogram.record(us);
  EXPECT_EQ(histogram.percentile(50), 8u);
  EXPECT_EQ(histogram.percentile(99), 15u);
}

TEST(LatencyHistogram, PercentilesBoundTheExactSortWithinAnEighth) {
  std::mt19937_64 rng(20211017);
  // Log-uniform over 1 us .. ~1 h, like a mix of hits and cold misses.
  std::uniform_real_distribution<double> log_us(0.0, 31.0);
  std::vector<std::uint64_t> samples;
  LatencyHistogram histogram;
  for (int i = 0; i < 5000; ++i) {
    const auto us = static_cast<std::uint64_t>(std::exp2(log_us(rng)));
    samples.push_back(us);
    histogram.record(us);
    if (i % 250 != 249) continue;
    std::vector<std::uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (const int p : {0, 1, 50, 90, 99, 100}) {
      const std::uint64_t exact = sorted[std::min(
          sorted.size() - 1, sorted.size() * static_cast<std::size_t>(p) /
                                 100)];
      const std::uint64_t reported = histogram.percentile(p);
      EXPECT_GE(reported, exact) << "p" << p << " n=" << sorted.size();
      EXPECT_LE(reported, exact + exact / 8) << "p" << p;
    }
  }
}

TEST(LatencyHistogram, ExtremeValuesStayInRange) {
  LatencyHistogram histogram;
  histogram.record(UINT64_MAX);
  histogram.record(std::uint64_t{1} << 63);
  EXPECT_EQ(histogram.percentile(0), (std::uint64_t{9} << 60) - 1);
  EXPECT_EQ(histogram.percentile(100), UINT64_MAX);
}

}  // namespace
}  // namespace soap
