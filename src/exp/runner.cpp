#include "exp/runner.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/trace.h"

namespace vafs::exp {

const ScenarioResult& ResultSet::at(
    std::initializer_list<std::pair<std::string_view, std::string_view>> query) const {
  const ScenarioResult* found = nullptr;
  for (const auto& sr : scenarios_) {
    bool match = true;
    for (const auto& [axis, value] : query) {
      const std::string* label = sr.spec.label(axis);
      if (label == nullptr || *label != value) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    if (found != nullptr) {
      std::fprintf(stderr, "exp::ResultSet::at: query is ambiguous (matches '%s' and '%s')\n",
                   found->spec.id.c_str(), sr.spec.id.c_str());
      std::abort();
    }
    found = &sr;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "exp::ResultSet::at: no scenario matches the query\n");
    std::abort();
  }
  return *found;
}

TaskOutcome run_one_task(const ScenarioSpec& spec, std::uint64_t seed,
                         core::SessionHooks hooks, bool trace, core::SessionArena* arena,
                         std::int64_t task_timeout_ms) {
  TaskOutcome out;
  core::SessionConfig config = spec.config;
  config.seed = seed;
  if (task_timeout_ms > 0) config.task_timeout_ms = task_timeout_ms;
  // Digest-only tracer per task (no event storage, no allocation): the
  // digest and event count land in the SessionResult before the tracer
  // goes out of scope. Hooks that supplied their own tracer win.
  std::optional<obs::Tracer> digest_tracer;
  if (hooks.tracer == nullptr && trace) {
    digest_tracer.emplace(obs::Tracer::Config{0});
    hooks.tracer = &*digest_tracer;
  }
  try {
    out.result = core::run_session(config, hooks, arena);
  } catch (const std::exception& e) {
    out.error = "scenario '" + spec.id + "' seed " + std::to_string(seed) + ": " + e.what();
  } catch (...) {
    out.error = "scenario '" + spec.id + "' seed " + std::to_string(seed) + ": unknown exception";
  }
  return out;
}

void execute_tasks(std::size_t first, std::size_t count, std::size_t chunk_size, int jobs,
                   std::size_t max_pending, const TaskRunner& run, const ChunkFold& fold) {
  if (first >= count) return;
  chunk_size = std::max<std::size_t>(chunk_size, 1);
  const std::size_t chunks = (count - first + chunk_size - 1) / chunk_size;

  std::mutex mu;
  std::condition_variable space_cv;  // workers: room to start a chunk
  std::condition_variable fold_cv;   // folder: a chunk arrived, or a worker threw
  std::map<std::size_t, std::vector<TaskOutcome>> finished;  // reorder buffer
  std::size_t next_chunk = 0;
  bool stop = false;
  std::exception_ptr failure;  // escaped a worker; rethrown on the calling thread

  // Chunks are handed out in order, so the one the fold waits for is
  // always running or next in line, whatever the buffer holds.
  const auto worker = [&] {
    try {
      core::SessionArena arena;
      for (;;) {
        std::size_t c = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          space_cv.wait(
              lock, [&] { return stop || max_pending == 0 || finished.size() < max_pending; });
          if (stop || next_chunk == chunks) return;
          c = next_chunk++;
        }
        const std::size_t begin = first + c * chunk_size;
        const std::size_t end = std::min(begin + chunk_size, count);
        std::vector<TaskOutcome> outcomes;
        outcomes.reserve(end - begin);
        for (std::size_t t = begin; t < end; ++t) outcomes.push_back(run(t, arena));
        {
          std::lock_guard<std::mutex> lock(mu);
          if (stop) return;
          finished.emplace(c, std::move(outcomes));
        }
        fold_cv.notify_one();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
      }
      fold_cv.notify_one();
    }
  };

  std::vector<std::thread> pool;
  const auto shutdown = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    space_cv.notify_all();
    for (auto& th : pool) th.join();
  };
  try {
    const std::size_t width =
        std::min<std::size_t>(static_cast<std::size_t>(std::max(jobs, 1)), chunks);
    pool.reserve(width);
    for (std::size_t w = 0; w < width; ++w) pool.emplace_back(worker);

    for (std::size_t c = 0; c < chunks; ++c) {
      std::vector<TaskOutcome> outcomes;
      {
        std::unique_lock<std::mutex> lock(mu);
        fold_cv.wait(lock, [&] { return failure || finished.count(c) > 0; });
        if (failure) std::rethrow_exception(failure);
        const auto it = finished.find(c);
        outcomes = std::move(it->second);
        finished.erase(it);
      }
      space_cv.notify_all();
      if (!fold(first + c * chunk_size, outcomes)) break;
    }
  } catch (...) {
    shutdown();
    throw;
  }
  shutdown();
  if (failure) std::rethrow_exception(failure);
}

ResultSet run_grid(const std::vector<ScenarioSpec>& scenarios, const RunOptions& opts) {
  std::vector<ScenarioResult> results(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    results[s].spec = scenarios[s];
    results[s].seeds = opts.seeds;
    results[s].runs.resize(opts.seeds.size());
  }

  // Flattened task list: task t = (scenario t / nseeds, seed t % nseeds).
  // Hooks are constructed up front on this thread (factories may touch
  // bench-local containers); each task's hooks then fire only on the one
  // worker that runs it.
  const std::size_t nseeds = opts.seeds.size();
  const std::size_t ntasks = scenarios.size() * nseeds;
  std::vector<core::SessionHooks> hooks(ntasks);
  for (std::size_t t = 0; t < ntasks; ++t) {
    if (opts.hooks) hooks[t] = opts.hooks(scenarios[t / nseeds], t / nseeds, t % nseeds);
    if (hooks[t].decision_backend == nullptr) hooks[t].decision_backend = opts.decision_backend;
  }
  // The capture task gets the bench's full-ring tracer; every other task
  // gets run_one_task's digest-only tracer when opts.trace. Hooks that
  // supplied their own tracer win either way.
  if (ntasks > 0 && hooks[0].tracer == nullptr) hooks[0].tracer = opts.capture;

  // One-task chunks with no backpressure: every result is kept anyway. A
  // task that threw lands in its scenario's failure list instead of
  // killing the grid; the fold runs in (scenario, seed) order, so the
  // aggregates and the failure report are as deterministic as the runs.
  execute_tasks(
      0, ntasks, 1, opts.jobs, 0,
      [&](std::size_t t, core::SessionArena& arena) {
        return run_one_task(scenarios[t / nseeds], opts.seeds[t % nseeds], std::move(hooks[t]),
                            opts.trace, &arena);
      },
      [&](std::size_t t, std::vector<TaskOutcome>& outcomes) {
        ScenarioResult& sr = results[t / nseeds];
        const std::size_t i = t % nseeds;
        TaskOutcome& out = outcomes.front();
        if (out.ok()) {
          sr.agg.add(out.result);
        } else {
          sr.failures.push_back(RunFailure{i, opts.seeds[i], std::move(out.error)});
          sr.agg.all_finished = false;
        }
        sr.runs[i] = std::move(out.result);
        return true;
      });
  return ResultSet(std::move(results));
}

ResultSet run_grid(const ExperimentGrid& grid, const RunOptions& opts) {
  return run_grid(grid.scenarios(), opts);
}

}  // namespace vafs::exp
