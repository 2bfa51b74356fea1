#include "orch/process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/config.hpp"
#include "util/durable_io.hpp"

namespace railcorr::orch {

namespace {

/// Child side: route stdout into the pipe, then exec. `c_argv` was
/// built by the parent before fork — only async-signal-safe calls may
/// run here (no allocation: another parent thread could hold the
/// malloc lock at fork time).
[[noreturn]] void child_exec(char* const* c_argv, bool use_path,
                             int write_fd) {
  // Own process group: kill() signals the whole group, so a worker
  // that forked helpers (a shell test double, a future wrapper script)
  // cannot leave orphans holding the progress pipe open. The parent
  // makes the same setpgid call to close the fork/exec race.
  ::setpgid(0, 0);
  while (::dup2(write_fd, STDOUT_FILENO) < 0 && errno == EINTR) {
  }
  ::close(write_fd);
  if (use_path) {
    ::execvp(c_argv[0], c_argv);
  } else {
    ::execv(c_argv[0], c_argv);
  }
  // Exec failed: exit with the conventional "command not runnable"
  // code so the orchestrator's retry accounting sees a plain failure.
  // write_fully is async-signal-safe and retries short writes and
  // EINTR — a bare ::write could drop part of the diagnostic when a
  // signal lands or stderr is a nearly-full pipe.
  const char* msg = "orch: exec failed: ";
  (void)railcorr::util::write_fully(STDERR_FILENO, msg, std::strlen(msg));
  (void)railcorr::util::write_fully(STDERR_FILENO, c_argv[0],
                                    std::strlen(c_argv[0]));
  (void)railcorr::util::write_fully(STDERR_FILENO, "\n", 1);
  ::_exit(127);
}

ExitStatus decode_status(int raw) {
  ExitStatus status;
  if (WIFSIGNALED(raw)) {
    status.signaled = true;
    status.code = 128 + WTERMSIG(raw);
  } else {
    status.code = WEXITSTATUS(raw);
  }
  return status;
}

/// Move the lines of `partial`'s first `length` bytes into `lines` and
/// drop those bytes.
void take_lines(std::string& partial, std::size_t length,
                std::vector<std::string>& lines) {
  std::string_view rest = std::string_view(partial).substr(0, length);
  while (!rest.empty()) lines.emplace_back(util::take_line(rest));
  partial.erase(0, length);
}

}  // namespace

ChildProcess ChildProcess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::runtime_error("orch: spawn with empty argv");
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error(std::string("orch: pipe failed: ") +
                             std::strerror(errno));
  }
  // Close-on-exec on both ends so later-spawned workers do not inherit
  // the read ends of their siblings' pipes (a sibling outliving a
  // worker would otherwise keep that worker's pipe object alive). The
  // child's dup2 copy of the write end onto stdout clears the flag, so
  // worker output is unaffected. Spawns all happen on one thread, so
  // setting the flags after pipe() is race-free here.
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  // argv marshalling happens before fork: the child may not allocate.
  std::vector<char*> c_argv;
  c_argv.reserve(argv.size() + 1);
  for (const auto& arg : argv) c_argv.push_back(const_cast<char*>(arg.c_str()));
  c_argv.push_back(nullptr);
  const bool use_path = argv[0].find('/') == std::string::npos;

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("orch: fork failed: ") +
                             std::strerror(err));
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_exec(c_argv.data(), use_path, fds[1]);
  }
  ::close(fds[1]);
  ::setpgid(pid, pid);  // Mirror of the child's call; EACCES post-exec is fine.
  // Non-blocking reads: the orchestrator drains after poll() and must
  // never stall on a worker that wrote a partial line.
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);

  ChildProcess child;
  child.pid_ = pid;
  child.stdout_fd_ = fds[0];
  return child;
}

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      reaped_(std::exchange(other.reaped_, false)),
      status_(other.status_),
      partial_(std::move(other.partial_)) {}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    if (pid_ >= 0 && !reaped_) {
      kill();
      wait();
    }
    close_stdout();
    pid_ = std::exchange(other.pid_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    reaped_ = std::exchange(other.reaped_, false);
    status_ = other.status_;
    partial_ = std::move(other.partial_);
  }
  return *this;
}

ChildProcess::~ChildProcess() {
  if (pid_ >= 0 && !reaped_) {
    kill();
    wait();
  }
  close_stdout();
}

void ChildProcess::close_stdout() {
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

bool ChildProcess::drain(std::vector<std::string>& lines) {
  if (stdout_fd_ < 0) return false;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof buffer);
    if (n > 0) {
      partial_.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF (or unrecoverable error): flush any unterminated tail line
    // — a killed worker's last progress line is still evidence.
    take_lines(partial_, partial_.size(), lines);
    close_stdout();
    return false;
  }
  // Complete lines only: through the last newline (npos + 1 == 0 when
  // there is none); the tail waits for the next read.
  take_lines(partial_, partial_.rfind('\n') + 1, lines);
  return true;
}

void ChildProcess::kill(int sig) {
  if (pid_ < 0 || reaped_) return;
  // Signal the worker's whole process group (see spawn); fall back to
  // the direct pid if the group is already gone.
  if (::kill(-pid_, sig) != 0) ::kill(pid_, sig);
}

std::optional<ExitStatus> ChildProcess::try_reap() {
  if (reaped_) return status_;
  int raw = 0;
  const pid_t got = ::waitpid(pid_, &raw, WNOHANG);
  if (got == 0) return std::nullopt;
  if (got < 0) {
    // ECHILD etc.: nothing left to reap; report a generic failure.
    reaped_ = true;
    status_ = ExitStatus{.code = 127, .signaled = false};
    return status_;
  }
  reaped_ = true;
  status_ = decode_status(raw);
  return status_;
}

ExitStatus ChildProcess::wait() {
  if (reaped_) return status_;
  int raw = 0;
  pid_t got;
  do {
    got = ::waitpid(pid_, &raw, 0);
  } while (got < 0 && errno == EINTR);
  reaped_ = true;
  status_ = got < 0 ? ExitStatus{.code = 127, .signaled = false}
                    : decode_status(raw);
  return status_;
}

std::string self_executable_path(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return std::string(buffer);
  }
  return argv0 != nullptr ? std::string(argv0) : std::string("railcorr");
}

}  // namespace railcorr::orch
