#include "child.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace perfbench {

Child::Child(const std::vector<std::string>& argv) {
  // A reply to a dead child must not kill the benchmark.
  ::signal(SIGPIPE, SIG_IGN);
  int to_child[2];
  int from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
  posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(to_child[0]);
  ::close(from_child[1]);
  in_fd_ = to_child[1];
  out_fd_ = from_child[0];
  if (rc != 0) {
    ::close(in_fd_);
    ::close(out_fd_);
    in_fd_ = out_fd_ = -1;
    reaped_ = true;
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
}

Child::~Child() {
  if (!reaped_) {
    ::kill(pid_, SIGKILL);
    wait();
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::write(const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(in_fd_, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> Child::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

int Child::wait(long* max_rss_kb) {
  if (in_fd_ >= 0) {
    ::close(in_fd_);
    in_fd_ = -1;
  }
  if (reaped_) return -1;
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid_, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      reaped_ = true;
      return -1;
    }
  }
  reaped_ = true;
  if (max_rss_kb != nullptr) *max_rss_kb = usage.ru_maxrss;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace perfbench
