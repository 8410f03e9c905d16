// A child process with pipes to its stdin and stdout: the benchmark's
// client side of `analyzed`, and the probe it times set-up with.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  /// Starts argv[0] (a path) with the given arguments; throws
  /// std::runtime_error when the process cannot be started.
  explicit Child(const std::vector<std::string>& argv);
  /// Closes the pipes and reaps the process if wait() was not called.
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Writes all of `data` to the child's stdin; false when the pipe broke.
  bool write(const std::string& data);
  /// Next line of the child's stdout without the newline; nullopt at EOF.
  std::optional<std::string> read_line();
  /// Closes stdin, waits for exit, and returns the exit status (-1 when the
  /// child was killed by a signal).  Peak RSS of the child in KiB is
  /// stored in `max_rss_kb` when non-null.
  int wait(long* max_rss_kb = nullptr);

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  bool reaped_ = false;
};

}  // namespace perfbench
