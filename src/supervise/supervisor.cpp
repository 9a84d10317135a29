#include "supervise/supervisor.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <mutex>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exp/runner.h"
#include "fleet/ledger.h"
#include "obs/export.h"
#include "supervise/wire.h"

namespace vafs::supervise {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGPIPE: return "SIGPIPE";
    case SIGHUP: return "SIGHUP";
  }
  return nullptr;
}

std::string signal_label(int sig) {
  const char* name = signal_name(sig);
  return name != nullptr ? std::string(name) : "SIG" + std::to_string(sig);
}

/// One quarantine.jsonl line. Deterministic: no timestamps, no pids — the
/// kill/resume byte-identity tests diff this file directly.
std::string quarantine_json(const QuarantineRecord& q) {
  std::string line = "{\"task\":" + std::to_string(q.task_index) +
                     ",\"scenario\":" + obs::json_quote(q.scenario) +
                     ",\"seed\":" + std::to_string(q.seed) +
                     ",\"attempts\":" + std::to_string(q.attempts) + ",\"fates\":[";
  for (std::size_t i = 0; i < q.fates.size(); ++i) {
    if (i > 0) line += ',';
    line += obs::json_quote(q.fates[i]);
  }
  line += "],\"stderr\":" + obs::json_quote(q.stderr_tail) +
          ",\"last_trace_events\":" + std::to_string(q.last_trace_events) +
          ",\"last_trace_digest\":\"" + obs::digest_hex(q.last_trace_digest) + "\"}\n";
  return line;
}

/// RSS of a live process in MiB via /proc/<pid>/statm (0 when unreadable).
std::uint64_t read_rss_mib(pid_t pid) {
#ifdef __linux__
  const std::string path = "/proc/" + std::to_string(pid) + "/statm";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long long vsz_pages = 0;
  unsigned long long rss_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &vsz_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return rss_pages * page >> 20;
#else
  (void)pid;
  return 0;
#endif
}

/// Writes one full line to a (blocking) pipe fd, retrying EINTR. EPIPE is
/// swallowed: a dead peer is detected elsewhere (EOF / waitpid).
void write_line(int fd, std::string_view line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Worker side (runs in the forked child; never returns).
// ---------------------------------------------------------------------------

struct WorkerContext {
  const std::vector<exp::ScenarioSpec>* scenarios = nullptr;
  const fleet::ShardPlan* plan = nullptr;
  const std::vector<std::uint64_t>* seeds = nullptr;
  bool trace = true;
  std::int64_t task_timeout_ms = 0;
  std::int64_t heartbeat_interval_ms = 250;
  ChaosConfig chaos;
  std::uint64_t chaos_leak_cap_mb = 512;
};

[[noreturn]] void execute_chaos(ChaosFate fate, std::uint64_t task, int attempt,
                                std::atomic<bool>* beating, std::uint64_t leak_cap_mb) {
  // Announce on stderr first: the supervisor captures this tail into the
  // quarantine record, and the text is deterministic by construction.
  std::fprintf(stderr, "chaos: task %llu attempt %d fate %s\n",
               static_cast<unsigned long long>(task), attempt, chaos_fate_name(fate));
  std::fflush(stderr);
  switch (fate) {
    case ChaosFate::kCrash:
      ::raise(SIGSEGV);
      break;
    case ChaosFate::kAbort:
      std::abort();
    case ChaosFate::kExit:
      ::_exit(41);
    case ChaosFate::kHangSilent:
      beating->store(false, std::memory_order_relaxed);
      for (;;) ::pause();
    case ChaosFate::kStall:
      // Keep heartbeating, never finish: only the task deadline catches it.
      for (;;) ::usleep(50 * 1000);
    case ChaosFate::kLeak: {
      // Allocate-and-touch until a budget stops us, then mimic the kernel
      // OOM killer (SIGKILL — no unwind, no exit status).
      constexpr std::size_t kChunk = 8u << 20;
      std::vector<char*> chunks;
      const std::size_t max_chunks =
          leak_cap_mb > 0 ? static_cast<std::size_t>((leak_cap_mb << 20) / kChunk) : 0;
      try {
        for (std::size_t i = 0; i < max_chunks; ++i) {
          char* p = new char[kChunk];
          std::memset(p, 1, kChunk);
          chunks.push_back(p);
        }
      } catch (...) {
      }
      ::raise(SIGKILL);
      break;
    }
    case ChaosFate::kNone:
      break;
  }
  ::_exit(40);  // unreachable for real fates; satisfies [[noreturn]]
}

[[noreturn]] void worker_main(int cmd_rd, int res_wr, const WorkerContext& ctx) {
  ::signal(SIGPIPE, SIG_IGN);

  // Heartbeat thread: one H line per interval, carrying the in-flight
  // task's last obs checkpoint window (mirrored atomics — the tracer
  // itself stays single-threaded).
  std::atomic<bool> stop{false};
  std::atomic<bool> beating{true};
  std::atomic<std::uint64_t> mirror_events{0};
  std::atomic<std::uint64_t> mirror_digest{0};
  std::mutex beat_mu;
  std::condition_variable beat_cv;
  std::thread beat_thread([&] {
    std::uint64_t beat = 0;
    const auto interval = std::chrono::milliseconds(
        ctx.heartbeat_interval_ms > 0 ? ctx.heartbeat_interval_ms : 250);
    std::unique_lock<std::mutex> lock(beat_mu);
    while (!stop.load(std::memory_order_relaxed)) {
      if (beating.load(std::memory_order_relaxed)) {
        WireHeartbeat h;
        h.beat = ++beat;
        h.trace_events = mirror_events.load(std::memory_order_acquire);
        h.trace_digest = mirror_digest.load(std::memory_order_relaxed);
        std::string line;
        encode_heartbeat(&line, h);
        write_line(res_wr, line);
      }
      // cv instead of sleep: a Q command must not pay a full interval of
      // shutdown latency waiting for the beat thread to wake up.
      beat_cv.wait_for(lock, interval,
                       [&] { return stop.load(std::memory_order_relaxed); });
    }
  });
  const auto stop_beats = [&] {
    {
      std::lock_guard<std::mutex> lock(beat_mu);
      stop.store(true, std::memory_order_relaxed);
    }
    beat_cv.notify_one();
  };

  core::SessionArena arena;
  std::string buf;
  char chunk[512];
  const auto read_cmd_line = [&](std::string* line) {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        *line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      const ssize_t n = ::read(cmd_rd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // supervisor died: exit quietly
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  };

  std::string line;
  while (read_cmd_line(&line)) {
    if (is_quit(line)) break;
    std::uint64_t task = 0;
    int attempt = 0;
    if (!parse_task(line, &task, &attempt)) continue;

    // Begin-ack before anything can kill us: the supervisor charges the
    // strike for this death to `task` only after seeing the B.
    {
      std::string ack;
      encode_begin(&ack, task);
      write_line(res_wr, ack);
    }

    const ChaosFate fate = chaos_fate(ctx.chaos, task, attempt);
    if (fate != ChaosFate::kNone) {
      execute_chaos(fate, task, attempt, &beating, ctx.chaos_leak_cap_mb);
    }

    mirror_events.store(0, std::memory_order_relaxed);
    mirror_digest.store(0, std::memory_order_relaxed);
    const fleet::TaskRef ref = ctx.plan->task(task);
    core::SessionHooks hooks;
    std::optional<obs::Tracer> tracer;
    if (ctx.trace) {
      tracer.emplace(obs::Tracer::Config{0});
      tracer->mirror_checkpoints(&mirror_events, &mirror_digest);
      hooks.tracer = &*tracer;
    }
    // trace=false here: the hooks tracer (when ctx.trace) already matches
    // run_one_task's own digest-only tracer bit for bit.
    exp::TaskOutcome out =
        exp::run_one_task((*ctx.scenarios)[ref.scenario], (*ctx.seeds)[ref.seed_index],
                          std::move(hooks), false, &arena, ctx.task_timeout_ms);
    std::string reply;
    if (out.ok()) {
      WireResult wr;
      wr.task_index = task;
      wr.finished = out.result.finished;
      wr.digest = out.result.trace_digest;
      exp::Aggregate::session_values(out.result, wr.values);
      encode_result(&reply, wr);
    } else {
      encode_failure(&reply, task, out.error);
    }
    write_line(res_wr, reply);
  }

  stop_beats();
  beat_thread.join();
  ::_exit(0);
}

// ---------------------------------------------------------------------------
// Supervisor side.
// ---------------------------------------------------------------------------

struct Inflight {
  std::uint64_t task = 0;
  int attempt = 0;
  bool begun = false;
  Clock::time_point begin_time{};
};

struct Worker {
  std::size_t slot = 0;
  pid_t pid = -1;
  int cmd_wr = -1;
  int res_rd = -1;
  int err_rd = -1;
  bool alive = false;
  std::deque<Inflight> inflight;
  std::string res_buf;
  std::string err_tail;
  Clock::time_point last_beat{};
  std::uint64_t last_events = 0;
  std::uint64_t last_digest = 0;
  bool killed_by_us = false;
  WorkerFate kill_reason = WorkerFate::kClean;
};

/// Bounded stderr tail retained per in-flight task.
constexpr std::size_t kMaxStderrTail = 4096;

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

const char* worker_fate_name(WorkerFate fate) {
  switch (fate) {
    case WorkerFate::kClean: return "clean";
    case WorkerFate::kExit: return "exit";
    case WorkerFate::kCrash: return "crash";
    case WorkerFate::kAbort: return "abort";
    case WorkerFate::kKilled: return "killed";
    case WorkerFate::kHangKill: return "hang";
    case WorkerFate::kDeadlineKill: return "deadline";
    case WorkerFate::kRssKill: return "oom";
  }
  return "?";
}

SupervisedResult run_supervised(const std::vector<exp::ScenarioSpec>& scenarios,
                                const fleet::FleetOptions& fopts, const SuperviseOptions& sopts) {
  SupervisedResult result;
  fleet::FleetResult& fr = result.fleet;
  std::string quarantine_path = sopts.quarantine_path;
  if (quarantine_path.empty() && !fopts.checkpoint_dir.empty()) {
    quarantine_path = fopts.checkpoint_dir + "/quarantine.jsonl";
  }
  fleet::Ledger ledger(scenarios, fopts, &fr, "supervise", quarantine_path);
  if (!ledger.ok()) return result;
  result.quarantined_resumed = fr.quarantined.size();
  const fleet::ShardPlan& plan = ledger.plan();
  const std::uint64_t task_count = plan.task_count();

  // SIGPIPE must not kill the supervisor when a worker dies mid-command.
  struct sigaction ignore_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction old_pipe {};
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  const Clock::time_point run_start = Clock::now();
  const auto trace_event = [&](obs::EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
                               std::uint64_t c = 0) {
    if (sopts.tracer != nullptr) {
      sopts.tracer->record(sim::SimTime::millis(ms_between(run_start, Clock::now())), kind, a, b,
                           c);
    }
  };

  // ---- Dispatch state; the ledger folds.
  std::uint64_t next_task = ledger.next_task();  // next never-dispatched task

  struct Pending {
    enum Kind : std::uint8_t { kOk, kFailed, kQuarantined } kind = kOk;
    WireResult res;
    std::string error;
    QuarantineRecord quarantine;
  };
  std::map<std::uint64_t, Pending> pending;
  std::set<std::uint64_t> retry;              // tasks awaiting re-dispatch, frontier first
  std::map<std::uint64_t, int> attempt_of;    // next attempt number (absent = 0)
  std::map<std::uint64_t, std::vector<std::string>> fates_of;

  const int worker_count = std::max(1, sopts.workers);
  std::vector<Worker> workers(static_cast<std::size_t>(worker_count));
  for (std::size_t i = 0; i < workers.size(); ++i) workers[i].slot = i;

  bool shutting_down = false;

  WorkerContext ctx;
  ctx.scenarios = &scenarios;
  ctx.plan = &plan;
  ctx.seeds = &fopts.seeds;
  ctx.trace = fopts.trace;
  ctx.task_timeout_ms = fopts.task_timeout_ms;
  ctx.heartbeat_interval_ms = sopts.heartbeat_interval_ms;
  ctx.chaos = sopts.chaos;
  ctx.chaos_leak_cap_mb = sopts.chaos_leak_cap_mb;

  const auto close_worker_fds = [](Worker& w) {
    if (w.cmd_wr >= 0) ::close(w.cmd_wr);
    if (w.res_rd >= 0) ::close(w.res_rd);
    if (w.err_rd >= 0) ::close(w.err_rd);
    w.cmd_wr = w.res_rd = w.err_rd = -1;
  };

  const auto spawn_worker = [&](Worker& w) -> bool {
    int cmd[2] = {-1, -1};
    int res[2] = {-1, -1};
    int err[2] = {-1, -1};
    if (::pipe(cmd) != 0 || ::pipe(res) != 0 || ::pipe(err) != 0) {
      fr.error = "supervise: pipe() failed: " + std::string(std::strerror(errno));
      for (const int fd : {cmd[0], cmd[1], res[0], res[1], err[0], err[1]}) {
        if (fd >= 0) ::close(fd);
      }
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      fr.error = "supervise: fork() failed: " + std::string(std::strerror(errno));
      for (const int fd : {cmd[0], cmd[1], res[0], res[1], err[0], err[1]}) ::close(fd);
      return false;
    }
    if (pid == 0) {
      // Child. Drop every inherited supervisor-side fd — a leaked res-pipe
      // write end would keep a sibling's EOF from ever arriving.
      for (Worker& other : workers) {
        if (other.cmd_wr >= 0) ::close(other.cmd_wr);
        if (other.res_rd >= 0) ::close(other.res_rd);
        if (other.err_rd >= 0) ::close(other.err_rd);
      }
      ::close(cmd[1]);
      ::close(res[0]);
      ::close(err[0]);
      ::dup2(err[1], 2);
      ::close(err[1]);
      if (ledger.quarantine_fd() >= 0) ::close(ledger.quarantine_fd());
      if (sopts.worker_as_limit_mb > 0) {
        struct rlimit rl {};
        rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(sopts.worker_as_limit_mb) << 20;
        ::setrlimit(RLIMIT_AS, &rl);
      }
      worker_main(cmd[0], res[1], ctx);
    }
    // Parent.
    ::close(cmd[0]);
    ::close(res[1]);
    ::close(err[1]);
    w.pid = pid;
    w.cmd_wr = cmd[1];
    w.res_rd = res[0];
    w.err_rd = err[0];
    set_nonblock(w.res_rd);
    set_nonblock(w.err_rd);
    w.alive = true;
    w.inflight.clear();
    w.res_buf.clear();
    w.err_tail.clear();
    w.last_beat = Clock::now();
    w.last_events = w.last_digest = 0;
    w.killed_by_us = false;
    ++result.worker_spawns;
    trace_event(obs::EventKind::kWorkerSpawn, w.slot, static_cast<std::uint64_t>(pid));
    return true;
  };

  const auto dispatch_to = [&](Worker& w) {
    while (w.alive && w.inflight.size() < 2) {
      std::uint64_t task = 0;
      if (!retry.empty()) {
        task = *retry.begin();
        retry.erase(retry.begin());
      } else if (next_task < task_count) {
        task = next_task++;
      } else {
        return;
      }
      const auto it = attempt_of.find(task);
      const int attempt = it != attempt_of.end() ? it->second : 0;
      std::string line;
      encode_task(&line, task, attempt);
      write_line(w.cmd_wr, line);
      Inflight fl;
      fl.task = task;
      fl.attempt = attempt;
      w.inflight.push_back(fl);
      trace_event(obs::EventKind::kTaskDispatch, task, w.slot, static_cast<std::uint64_t>(attempt));
    }
  };

  // Folds every pending frontier task; returns false when the run must
  // stop (on_progress declined, or a persistence error set fr.error).
  const auto fold_ready = [&]() -> bool {
    for (;;) {
      const auto it = pending.find(ledger.next_task());
      if (it == pending.end()) return true;
      Pending p = std::move(it->second);
      pending.erase(it);
      bool go = true;
      switch (p.kind) {
        case Pending::kOk:
          go = ledger.fold_session(p.res.values, p.res.finished, p.res.digest);
          break;
        case Pending::kFailed:
          go = ledger.fold_failure(std::move(p.error));
          break;
        case Pending::kQuarantined: {
          // Excluded *explicitly* from the chain, aggregates and spool:
          // the digest chain over survivors stays bit-identical to a
          // clean run over the same surviving task set.
          fleet::CheckpointQuarantine cq;
          cq.task_index = p.quarantine.task_index;
          cq.seed = p.quarantine.seed;
          cq.attempts = static_cast<std::uint64_t>(p.quarantine.attempts);
          for (std::size_t i = 0; i < p.quarantine.fates.size(); ++i) {
            if (i > 0) cq.fates += ',';
            cq.fates += p.quarantine.fates[i];
          }
          cq.stderr_tail = p.quarantine.stderr_tail;
          cq.last_trace_events = p.quarantine.last_trace_events;
          cq.last_trace_digest = p.quarantine.last_trace_digest;
          go = ledger.fold_quarantine(std::move(cq), quarantine_json(p.quarantine));
          result.quarantine.push_back(std::move(p.quarantine));
          break;
        }
      }
      if (!go) return false;
    }
  };

  // Processes one complete res-pipe line from `w`.
  const auto handle_res_line = [&](Worker& w, std::string_view line) {
    WireHeartbeat hb;
    if (parse_heartbeat(line, &hb)) {
      w.last_beat = Clock::now();
      w.last_events = hb.trace_events;
      w.last_digest = hb.trace_digest;
      return;
    }
    std::uint64_t task = 0;
    if (parse_begin(line, &task)) {
      w.last_beat = Clock::now();
      for (Inflight& fl : w.inflight) {
        if (fl.task == task && !fl.begun) {
          fl.begun = true;
          fl.begin_time = Clock::now();
          break;
        }
      }
      // Fresh task: fresh stderr tail and obs window.
      w.err_tail.clear();
      w.last_events = w.last_digest = 0;
      return;
    }
    WireResult res;
    if (parse_result(line, &res)) {
      w.last_beat = Clock::now();
      if (!w.inflight.empty() && w.inflight.front().task == res.task_index) {
        w.inflight.pop_front();
      }
      Pending p;
      p.kind = Pending::kOk;
      p.res = res;
      pending[res.task_index] = std::move(p);
      return;
    }
    WireFailure fail;
    if (parse_failure(line, &fail)) {
      w.last_beat = Clock::now();
      if (!w.inflight.empty() && w.inflight.front().task == fail.task_index) {
        w.inflight.pop_front();
      }
      Pending p;
      p.kind = Pending::kFailed;
      p.error = std::move(fail.error);
      pending[fail.task_index] = std::move(p);
      return;
    }
    // Malformed line: drop it (single-write atomicity makes this a
    // should-not-happen; the heartbeat/deadline layer still protects us).
  };

  // Drains a worker's res pipe; returns false when the pipe hit EOF.
  const auto drain_res = [&](Worker& w) -> bool {
    char chunk[1024];
    bool open = true;
    for (;;) {
      const ssize_t n = ::read(w.res_rd, chunk, sizeof(chunk));
      if (n > 0) {
        w.res_buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      open = false;  // EOF or hard error: the worker is gone
      break;
    }
    std::size_t nl = 0;
    while ((nl = w.res_buf.find('\n')) != std::string::npos) {
      handle_res_line(w, std::string_view(w.res_buf).substr(0, nl));
      w.res_buf.erase(0, nl + 1);
    }
    return open;
  };

  const auto drain_err = [&](Worker& w) {
    char chunk[1024];
    for (;;) {
      const ssize_t n = ::read(w.err_rd, chunk, sizeof(chunk));
      if (n > 0) {
        w.err_tail.append(chunk, static_cast<std::size_t>(n));
        if (w.err_tail.size() > kMaxStderrTail) {
          w.err_tail.erase(0, w.err_tail.size() - kMaxStderrTail);
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN or EOF — err EOF is handled via the res pipe
    }
  };

  const auto fate_string = [&](WorkerFate fate, int status) -> std::string {
    switch (fate) {
      case WorkerFate::kClean: return "clean";
      case WorkerFate::kExit: return "exit:" + std::to_string(WEXITSTATUS(status));
      case WorkerFate::kCrash: return "crash:" + signal_label(WTERMSIG(status));
      case WorkerFate::kAbort: return "abort:SIGABRT";
      case WorkerFate::kKilled: return "killed:" + signal_label(WTERMSIG(status));
      case WorkerFate::kHangKill: return "hang:heartbeat-miss";
      case WorkerFate::kDeadlineKill: return "deadline:exceeded";
      case WorkerFate::kRssKill: return "oom:rss-limit";
    }
    return "?";
  };

  // Reaps a dead worker, charges the strike, requeues its tasks.
  const auto handle_death = [&](Worker& w) {
    // Capture everything the pipes still hold: the B ack and the chaos
    // stderr announcement of the fatal task ride ahead of the EOF.
    drain_res(w);
    drain_err(w);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    WorkerFate fate = WorkerFate::kKilled;
    if (w.killed_by_us) {
      fate = w.kill_reason;
    } else if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      if (sig == SIGSEGV || sig == SIGBUS || sig == SIGILL || sig == SIGFPE) {
        fate = WorkerFate::kCrash;
      } else if (sig == SIGABRT) {
        fate = WorkerFate::kAbort;
      } else {
        fate = WorkerFate::kKilled;
      }
    } else if (WIFEXITED(status)) {
      fate = WEXITSTATUS(status) == 0 ? WorkerFate::kClean : WorkerFate::kExit;
    }
    trace_event(obs::EventKind::kWorkerExit, w.slot,
                static_cast<std::uint64_t>(static_cast<std::uint8_t>(fate)),
                static_cast<std::uint64_t>(status));
    if (fate != WorkerFate::kClean) ++result.worker_deaths;

    if (!shutting_down) {
      const std::string fate_str = fate_string(fate, status);
      bool head_struck = false;
      for (const Inflight& fl : w.inflight) {
        if (fl.begun && !head_struck) {
          // The task the worker was actually executing: one strike.
          head_struck = true;
          fates_of[fl.task].push_back(fate_str);
          const int next_attempt = fl.attempt + 1;
          attempt_of[fl.task] = next_attempt;
          if (next_attempt >= std::max(1, sopts.max_task_attempts)) {
            const fleet::TaskRef ref = plan.task(fl.task);
            QuarantineRecord q;
            q.task_index = fl.task;
            q.seed = fopts.seeds[ref.seed_index];
            q.scenario = scenarios[ref.scenario].id;
            q.attempts = next_attempt;
            q.fates = fates_of[fl.task];
            q.stderr_tail = w.err_tail;
            q.last_trace_events = w.last_events;
            q.last_trace_digest = w.last_digest;
            Pending p;
            p.kind = Pending::kQuarantined;
            p.quarantine = std::move(q);
            pending[fl.task] = std::move(p);
            trace_event(obs::EventKind::kTaskQuarantine, fl.task,
                        static_cast<std::uint64_t>(next_attempt));
          } else {
            retry.insert(fl.task);
            ++result.task_retries;
            trace_event(obs::EventKind::kTaskRetry, fl.task,
                        static_cast<std::uint64_t>(next_attempt),
                        static_cast<std::uint64_t>(static_cast<std::uint8_t>(fate)));
          }
        } else {
          // Queued but never begun (or behind the struck head): an
          // innocent victim — re-dispatch at the same attempt number so
          // chaos fates (and thus the quarantine set) stay deterministic.
          retry.insert(fl.task);
        }
      }
    }
    w.inflight.clear();
    close_worker_fds(w);
    w.alive = false;
    w.pid = -1;
  };

  const auto kill_worker = [&](Worker& w, WorkerFate reason) {
    if (!w.alive || w.killed_by_us) return;
    w.killed_by_us = true;
    w.kill_reason = reason;
    ::kill(w.pid, SIGKILL);
    switch (reason) {
      case WorkerFate::kHangKill: ++result.heartbeat_kills; break;
      case WorkerFate::kDeadlineKill: ++result.deadline_kills; break;
      case WorkerFate::kRssKill: ++result.rss_kills; break;
      default: break;
    }
  };

  // ---- Bring up the fleet and run the event loop.
  if (ledger.next_task() < task_count) {
    for (Worker& w : workers) {
      if (!spawn_worker(w)) break;
      dispatch_to(w);
    }
  }

  std::vector<struct pollfd> pfds;
  while (fr.error.empty() && ledger.next_task() < task_count) {
    pfds.clear();
    for (const Worker& w : workers) {
      if (!w.alive) continue;
      pfds.push_back({w.res_rd, POLLIN, 0});
      pfds.push_back({w.err_rd, POLLIN, 0});
    }
    if (pfds.empty()) {
      fr.error = "supervise: no live workers and unfinished tasks remain";
      break;
    }
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 20);
    if (rc < 0 && errno != EINTR) {
      fr.error = "supervise: poll() failed: " + std::string(std::strerror(errno));
      break;
    }

    // Drain every worker — res before err, so a task's B-ack always lands
    // before its stderr and the per-task stderr tail stays aligned.
    for (Worker& w : workers) {
      if (!w.alive) continue;
      const bool open = drain_res(w);
      drain_err(w);
      if (!open) handle_death(w);
    }

    if (!fold_ready() || ledger.next_task() >= task_count) break;

    // Respawn and keep everyone fed.
    for (Worker& w : workers) {
      if (!w.alive) {
        const bool work_remains =
            !retry.empty() || next_task < task_count ||
            std::any_of(workers.begin(), workers.end(),
                        [](const Worker& o) { return !o.inflight.empty(); });
        if (work_remains && !spawn_worker(w)) break;
      }
      if (w.alive) dispatch_to(w);
    }
    if (!fr.error.empty()) break;

    // Watchdogs: heartbeat silence, per-task deadline, RSS budget.
    const Clock::time_point now = Clock::now();
    for (Worker& w : workers) {
      if (!w.alive || w.killed_by_us) continue;
      if (sopts.heartbeat_timeout_ms > 0 &&
          ms_between(w.last_beat, now) > sopts.heartbeat_timeout_ms) {
        trace_event(obs::EventKind::kHeartbeatMiss, w.slot,
                    static_cast<std::uint64_t>(ms_between(w.last_beat, now)));
        kill_worker(w, WorkerFate::kHangKill);
        continue;
      }
      if (sopts.task_deadline_ms > 0 && !w.inflight.empty() && w.inflight.front().begun &&
          ms_between(w.inflight.front().begin_time, now) > sopts.task_deadline_ms) {
        trace_event(obs::EventKind::kTaskDeadline, w.inflight.front().task, w.slot,
                    static_cast<std::uint64_t>(sopts.task_deadline_ms));
        kill_worker(w, WorkerFate::kDeadlineKill);
        continue;
      }
      if (sopts.worker_rss_limit_mb > 0) {
        const std::uint64_t rss = read_rss_mib(w.pid);
        if (rss > sopts.worker_rss_limit_mb) {
          trace_event(obs::EventKind::kWorkerOverBudget, w.slot, rss, sopts.worker_rss_limit_mb);
          kill_worker(w, WorkerFate::kRssKill);
        }
      }
    }
  }

  // ---- Shutdown: ask politely, then reap, then insist.
  shutting_down = true;
  for (Worker& w : workers) {
    if (!w.alive) continue;
    std::string quit;
    encode_quit(&quit);
    write_line(w.cmd_wr, quit);
  }
  const Clock::time_point grace_start = Clock::now();
  for (;;) {
    bool any_alive = false;
    for (Worker& w : workers) {
      if (!w.alive) continue;
      int status = 0;
      const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
      if (got == w.pid) {
        close_worker_fds(w);
        w.alive = false;
        w.pid = -1;
        trace_event(obs::EventKind::kWorkerExit, w.slot,
                    static_cast<std::uint64_t>(
                        static_cast<std::uint8_t>(WorkerFate::kClean)),
                    static_cast<std::uint64_t>(status));
      } else {
        any_alive = true;
      }
    }
    if (!any_alive) break;
    if (ms_between(grace_start, Clock::now()) > 2000) {
      for (Worker& w : workers) {
        if (!w.alive) continue;
        ::kill(w.pid, SIGKILL);
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
        }
        close_worker_fds(w);
        w.alive = false;
        w.pid = -1;
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  ledger.close();
  ::sigaction(SIGPIPE, &old_pipe, nullptr);
  return result;
}

SupervisedResult run_supervised(const exp::ExperimentGrid& grid, const fleet::FleetOptions& fopts,
                                const SuperviseOptions& sopts) {
  return run_supervised(grid.scenarios(), fopts, sopts);
}

}  // namespace vafs::supervise
